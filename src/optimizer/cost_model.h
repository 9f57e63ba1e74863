#ifndef AIMAI_OPTIMIZER_COST_MODEL_H_
#define AIMAI_OPTIMIZER_COST_MODEL_H_

#include "catalog/database.h"
#include "exec/execution_cost.h"
#include "exec/plan.h"

namespace aimai {

/// The query optimizer's analytical cost model. Shares the per-operator
/// cost formulas with the execution simulator but reads *estimated*
/// cardinalities and uses the `OptimizerBelief` constant calibration, so
/// its verdicts diverge from true execution cost exactly where industrial
/// optimizers do.
class OptimizerCostModel {
 public:
  explicit OptimizerCostModel(const Database* db)
      : db_(db), constants_(CostConstants::OptimizerBelief()) {}

  /// Fills est_cost / est_subtree_cost / est_bytes / est_bytes_processed
  /// bottom-up on every node (est_rows / est_access_rows / est_executions
  /// must already be set by the enumerator). Sets and returns the plan's
  /// `est_total_cost` (including parallel startup).
  double Annotate(PhysicalPlan* plan) const;

  /// Same, for a detached subtree during enumeration. Returns the subtree
  /// cost assuming the given dop.
  double AnnotateSubtree(PlanNode* node, int dop) const;

  /// One step of AnnotateSubtree without the recursion: annotates `node`
  /// over children that already carry their est_* fields, and returns its
  /// est_subtree_cost (children summed left to right, then its own cost).
  double AnnotateNode(PlanNode* node, int dop) const;

  /// The serial own cost of a join, sort, aggregate or Top with output
  /// cardinality `rows` over children of `left_rows`/`right_rows` — the
  /// only fields such a node's cost reads — so a candidate can be priced
  /// before (or instead of) being built. Equals the est_cost that
  /// AnnotateNode gives the built node at dop 1, bit for bit.
  double OwnCost(PhysOp op, ExecMode mode, double rows, double left_rows,
                 double right_rows) const {
    return BatchDiscounted(
        op, mode, RowCountCost(op, rows, left_rows, right_rows, constants_),
        constants_);
  }

  const CostConstants& constants() const { return constants_; }

 private:
  double OutputWidth(const PlanNode& node) const;
  double BytesProcessed(const PlanNode& node) const;

  const Database* db_;
  CostConstants constants_;
};

}  // namespace aimai

#endif  // AIMAI_OPTIMIZER_COST_MODEL_H_

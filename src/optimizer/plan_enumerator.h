#ifndef AIMAI_OPTIMIZER_PLAN_ENUMERATOR_H_
#define AIMAI_OPTIMIZER_PLAN_ENUMERATOR_H_

#include <memory>
#include <vector>

#include "catalog/configuration.h"
#include "catalog/database.h"
#include "exec/plan.h"
#include "optimizer/cardinality_estimator.h"
#include "optimizer/cost_model.h"
#include "optimizer/query.h"
#include "optimizer/statistics.h"

namespace aimai {

/// Cost-based physical plan enumeration under a given index configuration.
///
/// The search space follows the classical System-R recipe adapted to a
/// modern executor: per-table access-path selection (heap scan, covering
/// index scan, index seek with optional key lookup and residual filter,
/// columnstore scan), dynamic-programming join ordering over connected
/// subsets (greedy beyond `max_dp_tables`), three join implementations,
/// hash vs. sort+stream aggregation, and a plan-level parallelism choice.
/// Estimates come from `CardinalityEstimator`; costs from
/// `OptimizerCostModel` (the optimizer's *belief*, not ground truth).
class PlanEnumerator {
 public:
  struct Options {
    /// Serial plans with estimated cost above this threshold go parallel.
    double parallel_cost_threshold = 50.0;
    int dop = 4;
    /// Beyond this many tables, greedy join ordering replaces DP.
    int max_dp_tables = 10;
    /// A nested-loop inner without an index is considered only if the
    /// inner table is at most this many rows (guards executor runtime).
    double nlj_scan_inner_max_rows = 2000.0;
  };

  PlanEnumerator(const Database* db, StatisticsCatalog* stats)
      : PlanEnumerator(db, stats, Options()) {}
  PlanEnumerator(const Database* db, StatisticsCatalog* stats,
                 Options options);

  /// Returns the cheapest (by estimated cost) physical plan for `query`
  /// under `config`. Every node carries est_rows / est_access_rows /
  /// est_executions / est_cost / est_bytes*.
  std::unique_ptr<PhysicalPlan> Optimize(const QuerySpec& query,
                                         const Configuration& config);

 private:
  /// Per-table inputs of access-path selection, computed once per
  /// Optimize call and shared by the table's access path and the
  /// nested-loop inners built on it.
  struct TableInputs {
    int table_id = -1;
    std::vector<Predicate> preds;
    std::vector<int> refcols;
    std::vector<ColumnRef> ref_refs;
    double table_rows = 0;
    double filtered_rows = 0;
  };

  struct AccessPath {
    std::unique_ptr<PlanNode> plan;
    double rows = 0;
  };

  TableInputs GatherTableInputs(const QuerySpec& query, int table_id);

  /// Cheapest access path for one table given the configuration.
  AccessPath BestAccessPath(const TableInputs& table,
                            const Configuration& config);

  /// Cheapest parameterized inner for a nested-loop join on `join_col` of
  /// `table` with `outer_rows` outer rows, annotated; null if none.
  std::unique_ptr<PlanNode> BuildNljInner(const TableInputs& table,
                                          int join_col,
                                          const Configuration& config,
                                          double outer_rows);

  /// Join-order search over the access paths. Candidates are priced from
  /// their inputs' cost, root rows and mode; only winners are built.
  std::unique_ptr<PlanNode> EnumerateJoins(
      const QuerySpec& query, const Configuration& config,
      const std::vector<TableInputs>& tables,
      std::vector<AccessPath> base_paths, double* out_rows);

  /// Adds aggregation / ordering / top on top of the join tree.
  std::unique_ptr<PlanNode> FinishPlan(const QuerySpec& query,
                                       std::unique_ptr<PlanNode> input,
                                       double input_rows);

  double Annotate(PlanNode* node) {
    return cost_model_.AnnotateSubtree(node, /*dop=*/1);
  }

  const Database* db_;
  StatisticsCatalog* stats_;
  CardinalityEstimator card_;
  OptimizerCostModel cost_model_;
  Options options_;
};

}  // namespace aimai

#endif  // AIMAI_OPTIMIZER_PLAN_ENUMERATOR_H_

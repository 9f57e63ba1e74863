#ifndef AIMAI_EXEC_PLAN_H_
#define AIMAI_EXEC_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "exec/expression.h"

namespace aimai {

/// Physical operators. Mirrors the SQL Server operator families the paper's
/// featurization keys on (§3.2): scans, seeks, lookups, the three join
/// algorithms, sorts, the two aggregate strategies, and Top.
enum class PhysOp {
  kTableScan,
  kIndexScan,        // Full ordered scan of a B+-tree index.
  kIndexSeek,        // Range/point seek on a B+-tree index.
  kKeyLookup,        // Fetch non-covered columns for rows found by a seek.
  kColumnstoreScan,  // Batch-mode scan of a columnstore index.
  kFilter,           // Residual predicate.
  kNestedLoopJoin,
  kHashJoin,
  kMergeJoin,
  kSort,
  kHashAggregate,
  kStreamAggregate,
  kTop,
};

const char* PhysOpName(PhysOp op);
constexpr int kNumPhysOps = 13;

/// Row-at-a-time vs vectorized execution.
enum class ExecMode { kRow, kBatch };

/// Aggregate functions.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

struct AggItem {
  AggFunc func = AggFunc::kCount;
  ColumnRef col;  // Ignored for COUNT(*).
};

struct SortKey {
  ColumnRef col;
  bool ascending = true;
};

/// Equi-join condition between two base-table columns.
struct JoinCond {
  ColumnRef left;
  ColumnRef right;
};

/// Per-node optimizer estimates (filled by the plan enumerator) and actual
/// execution statistics (filled by the executor + execution cost model).
/// The featurizer reads only the `est_*` fields, honoring the paper's
/// principle of never using execution-only information at inference time.
struct NodeStats {
  // --- Optimizer estimates ---
  double est_rows = 0;             // Output cardinality (total across executions).
  double est_executions = 1;       // Rebinds (inner side of a nested loop).
  double est_access_rows = 0;      // Rows examined before residual predicates
                                   // (scans: table rows; seeks: seek-qualified).
  double est_bytes = 0;            // Output bytes (rows * row width).
  double est_bytes_processed = 0;  // Bytes read/processed by this node.
  double est_cost = 0;             // This node's own estimated cost.
  double est_subtree_cost = 0;     // Cumulative (node + children).

  // --- Execution (ground truth; never featurized) ---
  double actual_rows = 0;          // Total across executions.
  double actual_executions = 1;
  double actual_access_rows = 0;
  double actual_cost = 0;          // Node's own simulated CPU time (ms).
  bool executed = false;
};

/// A node in a physical plan tree. Plans are immutable after optimization
/// except for the actual-execution fields in `stats`.
struct PlanNode {
  PhysOp op = PhysOp::kTableScan;
  ExecMode mode = ExecMode::kRow;
  bool parallel = false;

  std::vector<std::unique_ptr<PlanNode>> children;

  // -- Access payload (scans / seeks / lookups) --
  int table_id = -1;
  IndexDef index;                    // For kIndexScan / kIndexSeek.
  std::vector<Predicate> seek_preds;      // Sargable prefix used in the seek.
  std::vector<Predicate> residual_preds;  // Applied after access / as Filter.

  // -- Join payload --
  JoinCond join;

  // -- Sort / aggregate / top payload --
  std::vector<SortKey> sort_keys;
  std::vector<ColumnRef> group_by;
  std::vector<AggItem> aggregates;
  int64_t top_n = 0;

  /// Columns this node outputs (base-table references). For aggregates the
  /// output is synthetic; `output_width_bytes` is set directly instead.
  std::vector<ColumnRef> output_columns;
  double output_width_bytes = 0;

  NodeStats stats;

  PlanNode* child(size_t i) const { return children[i].get(); }

  /// Deep copy (the tuner caches plans; the executor annotates copies).
  std::unique_ptr<PlanNode> Clone() const;

  /// Pre-order visit.
  template <typename F>
  void Visit(F&& f) const {
    f(*this);
    for (const auto& c : children) c->Visit(f);
  }
  template <typename F>
  void VisitMutable(F&& f) {
    f(this);
    for (auto& c : children) c->VisitMutable(f);
  }

  /// Indented plan text (EXPLAIN-style), with estimates.
  std::string ToString(const Database& db, int indent = 0) const;
};

/// A complete physical plan with plan-level attributes.
struct PhysicalPlan {
  std::unique_ptr<PlanNode> root;
  int degree_of_parallelism = 1;
  double est_total_cost = 0;   // Optimizer's estimate for the whole plan.
  double actual_total_cost = 0;  // Simulated execution cost (ms); 0 until run.

  std::unique_ptr<PhysicalPlan> Clone() const;
  std::string ToString(const Database& db) const;

  /// 64-bit fingerprint over the plan's optimization-time content: tree
  /// structure, operator/mode/parallel flags, access payloads, and
  /// every est_* statistic (bit patterns, so it is exact). Actual-execution
  /// fields are excluded — they arrive after featurization and must not
  /// change a plan's identity. Everything the featurizer reads is covered,
  /// so equal hashes mean equal feature vectors; the pair-featurization
  /// memo (PairFeatureCache) keys on a pair of these.
  uint64_t ContentHash() const;
};

/// Computes the total output width (bytes/row) of a set of columns.
double RowWidthBytes(const Database& db, const std::vector<ColumnRef>& cols);

}  // namespace aimai

#endif  // AIMAI_EXEC_PLAN_H_

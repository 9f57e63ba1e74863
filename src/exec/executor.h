#ifndef AIMAI_EXEC_EXECUTOR_H_
#define AIMAI_EXEC_EXECUTOR_H_

#include "catalog/database.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "index/index_manager.h"

namespace aimai {

/// Builds a B+-tree KeyRange from `node`'s seek predicates: an equality
/// prefix over the index key columns, optionally followed by one range
/// column.
KeyRange BuildSeekRange(const Database& db, const PlanNode& node);

/// Executes physical plans against the in-memory database, producing exact
/// results and annotating every plan node with its true output cardinality
/// and execution count. Execution is the ground truth the ML pipeline
/// learns from; the simulated CPU time is derived afterwards by
/// `ExecutionCostModel` from the actual cardinalities.
///
/// One columnar batch engine runs every plan shape the optimizer emits.
/// Each unary single-table segment — an access leaf (dense scan, index
/// scan, or B+-tree seek) under any stack of KeyLookup / Filter nodes —
/// runs as one fused loop over selection-vector chunks of `kBatchRows`:
/// branchless filter compaction kernels feed either a fused grouped
/// aggregation sweep or a materialized row-id list. Above segments,
/// operators exchange flat `RowSet`s (one contiguous row-id array):
/// hash joins build a flat key-id table with per-key runs and probe in
/// chunks, index nested-loop joins seek once per distinct outer value,
/// merge joins and sorts work over gathered key arrays. Per-chunk scratch
/// comes from a thread-local ExecArena, so no operator allocates per row.
///
/// Determinism contract: results (content and order), per-node
/// `actual_rows` / `actual_executions` / `actual_access_rows` /
/// `executed`, group orders, and aggregate values are bit-identical to
/// the row-at-a-time reference interpreter the tests keep
/// (tests/reference_executor.h). The order is defined once: filters
/// preserve input order, hash joins emit in probe order with build
/// matches in build-input order, sorts are stable, and aggregates
/// accumulate sequentially in row order per group with accumulators
/// carried across chunks (never combined partial sums).
class Executor {
 public:
  Executor(const Database* db, IndexManager* indexes)
      : db_(db), indexes_(indexes) {}

  /// True iff every node is a supported operator over well-formed input:
  /// access leaves with predicates on their own table; KeyLookup, Filter
  /// (predicates on one input table), Sort, aggregates and Top over
  /// supported children; hash and merge joins whose key columns come from
  /// the matching sides; and nested-loop joins whose inner side is
  /// [Filter ->] [KeyLookup ->] IndexSeek (leading on the join column) or
  /// [Filter ->] TableScan on the join's inner table. Every plan the
  /// optimizer emits qualifies.
  static bool CanExecute(const PlanNode& root);

  /// Executes the plan; resets and then fills `stats.actual_rows` /
  /// `actual_executions` / `actual_access_rows` / `executed` on every
  /// node. Returns the root's result (for verification in tests).
  /// Precondition: CanExecute(*plan->root); a plan that fails it is a
  /// programming error and aborts.
  ExecResult Execute(PhysicalPlan* plan);

 private:
  const Database* db_;
  IndexManager* indexes_;
};

}  // namespace aimai

#endif  // AIMAI_EXEC_EXECUTOR_H_

#ifndef AIMAI_EXEC_VECTORIZED_EXECUTOR_H_
#define AIMAI_EXEC_VECTORIZED_EXECUTOR_H_

#include <vector>

#include "catalog/database.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "index/index_manager.h"

namespace aimai {

/// Columnar batch engine for every plan shape the optimizer emits.
///
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
/// Determinism contract: for every supported plan the engine produces
/// results (content and order), per-node `actual_rows` /
/// `actual_executions` / `actual_access_rows` / `executed`, group orders,
/// and aggregate values bit-identical to the row engine. Both engines
/// share one definition of order: filters preserve input order, hash
/// joins emit in probe order with build matches in build-input order,
/// sorts are stable, and aggregates accumulate sequentially in row order
/// per group with accumulators carried across chunks (never combined
/// partial sums), so `ExecutionCostModel` and the tuner see
/// indistinguishable signals.
///
/// `CanExecute` reports shapes outside that set (hand-built plans only);
/// the Executor runs those on the row engine.
class VectorizedExecutor {
 public:
  VectorizedExecutor(const Database* db, IndexManager* indexes)
      : db_(db), indexes_(indexes) {}

  /// True iff every node is a supported operator over well-formed input:
  /// access leaves with predicates on their own table; KeyLookup, Filter
  /// (predicates on one input table), Sort, aggregates and Top over
  /// supported children; hash and merge joins whose key columns come from
  /// the matching sides; and nested-loop joins whose inner side is
  /// [Filter ->] [KeyLookup ->] IndexSeek (leading on the join column) or
  /// [Filter ->] TableScan on the join's inner table.
  static bool CanExecute(const PlanNode& root);

  /// Executes a supported plan (caller must have checked CanExecute),
  /// filling actual stats on every node exactly as the row engine does.
  /// Stats must be reset by the caller (Executor::Execute does).
  ExecResult Execute(PlanNode* root);

 private:
  const Database* db_;
  IndexManager* indexes_;
};

}  // namespace aimai

#endif  // AIMAI_EXEC_VECTORIZED_EXECUTOR_H_

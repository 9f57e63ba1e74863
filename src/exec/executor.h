#ifndef AIMAI_EXEC_EXECUTOR_H_
#define AIMAI_EXEC_EXECUTOR_H_

#include "catalog/database.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "index/index_manager.h"

namespace aimai {

/// Process-wide default engine for newly constructed Executors:
/// `ExecMode::kBatch` selects the vectorized engine (every optimizer plan
/// shape; malformed hand-built plans fall back to the row engine),
/// `ExecMode::kRow` forces the row-at-a-time engine everywhere (for
/// bisection, and as the parity oracle). Initialized from the
/// `AIMAI_EXEC` environment variable ("row" or "vector"; default vector)
/// and overridable at runtime (`aimai_cli --exec=...`).
ExecMode DefaultExecMode();
void SetDefaultExecMode(ExecMode mode);

/// Builds a B+-tree KeyRange from `node`'s seek predicates: an equality
/// prefix over the index key columns, optionally followed by one range
/// column. Shared by the row and vectorized engines so seeks qualify the
/// identical row set on both paths.
KeyRange BuildSeekRange(const Database& db, const PlanNode& node);

/// Executes physical plans against the in-memory database, producing exact
/// results and annotating every plan node with its true output cardinality
/// and execution count. Execution is the ground truth the ML pipeline
/// learns from; the simulated CPU time is derived afterwards by
/// `ExecutionCostModel` from the actual cardinalities.
///
/// Two engines sit behind `Execute`: the row-at-a-time interpreter below,
/// kept as the independent parity oracle, and the columnar
/// VectorizedExecutor, which runs every plan shape the optimizer emits.
/// Both produce bit-identical results (content and order) and actual
/// statistics over the same flat RowSet; `mode()` selects which one runs
/// (default: the process-wide `DefaultExecMode()`).
class Executor {
 public:
  Executor(const Database* db, IndexManager* indexes)
      : db_(db), indexes_(indexes), mode_(DefaultExecMode()) {}

  /// Executes the plan; fills `stats.actual_rows` / `actual_executions` on
  /// every node. Returns the root's result (for verification in tests).
  ExecResult Execute(PhysicalPlan* plan);

  ExecMode mode() const { return mode_; }
  void set_mode(ExecMode mode) { mode_ = mode; }

 private:
  ExecResult ExecuteNode(PlanNode* node);

  /// Leaf access operators (scans / seeks).
  RowSet ExecuteAccess(PlanNode* node);

  /// Executes the inner side of a nested-loop join for one outer value.
  /// Supported inner shapes: [Filter ->] [KeyLookup ->] IndexSeek, or
  /// [Filter ->] TableScan. Accumulates stats into the inner nodes. A NaN
  /// outer value matches nothing: a seek qualifies no rows, a scan still
  /// examines the whole table.
  RowSet ExecuteInner(PlanNode* node, double outer_value, int join_col);

  const Database* db_;
  IndexManager* indexes_;
  ExecMode mode_;
};

}  // namespace aimai

#endif  // AIMAI_EXEC_EXECUTOR_H_

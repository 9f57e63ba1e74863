#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "exec/vectorized_executor.h"
#include "obs/obs.h"

namespace aimai {

namespace {

std::atomic<int>& DefaultExecModeFlag() {
  static std::atomic<int> mode = [] {
    const char* env = std::getenv("AIMAI_EXEC");
    if (env != nullptr && std::strcmp(env, "row") == 0) {
      return static_cast<int>(ExecMode::kRow);
    }
    return static_cast<int>(ExecMode::kBatch);
  }();
  return mode;
}

}  // namespace

ExecMode DefaultExecMode() {
  return static_cast<ExecMode>(DefaultExecModeFlag().load());
}

void SetDefaultExecMode(ExecMode mode) {
  DefaultExecModeFlag().store(static_cast<int>(mode));
}

namespace {

void ResetStats(PlanNode* root) {
  root->VisitMutable([](PlanNode* n) {
    n->stats.actual_rows = 0;
    n->stats.actual_executions = 0;
    n->stats.actual_access_rows = 0;
    n->stats.actual_cost = 0;
    n->stats.executed = false;
  });
}

void Record(PlanNode* node, size_t out_rows) {
  node->stats.actual_rows += static_cast<double>(out_rows);
  node->stats.actual_executions += 1;
  node->stats.executed = true;
}

}  // namespace

ExecResult Executor::Execute(PhysicalPlan* plan) {
  AIMAI_CHECK(plan != nullptr && plan->root != nullptr);
  AIMAI_SPAN("exec.execute");
  AIMAI_COUNTER_INC("exec.plans_executed");
  ResetStats(plan->root.get());
  if (mode_ == ExecMode::kBatch &&
      VectorizedExecutor::CanExecute(*plan->root)) {
    AIMAI_COUNTER_INC("exec.vectorized_plans");
    VectorizedExecutor vec(db_, indexes_);
    return vec.Execute(plan->root.get());
  }
  return ExecuteNode(plan->root.get());
}

KeyRange BuildSeekRange(const Database& db, const PlanNode& node) {
  // Resolve seek predicates per key column, then assemble the composite
  // range: an equality prefix, optionally followed by one range column.
  auto bounds = ResolveConjunction(db, node.seek_preds);
  auto find_bounds = [&bounds](int col) -> const NumericBounds* {
    for (const auto& [c, b] : bounds) {
      if (c == col) return &b;
    }
    return nullptr;
  };

  KeyRange range;
  for (int key_col : node.index.key_columns) {
    const NumericBounds* b = find_bounds(key_col);
    if (b == nullptr) break;
    const bool is_eq = b->has_lo && b->has_hi && !b->lo_open && !b->hi_open &&
                       b->lo == b->hi;
    if (is_eq) {
      range.lower.push_back(b->lo);
      range.upper.push_back(b->hi);
      range.has_lower = range.has_upper = true;
      continue;
    }
    if (b->has_lo) {
      range.lower.push_back(b->lo);
      range.has_lower = true;
      range.lower_open = b->lo_open;
    }
    if (b->has_hi) {
      range.upper.push_back(b->hi);
      range.has_upper = true;
      range.upper_open = b->hi_open;
    }
    break;  // Only one non-equality column participates in the seek.
  }
  return range;
}

RowSet Executor::ExecuteAccess(PlanNode* node) {
  RowSet out;
  out.tables = {node->table_id};
  const Table& table = db_->table(node->table_id);
  const auto residual = BindConjunction(*db_, table, node->residual_preds);

  // Reserve from the optimizer's cardinality estimate (clamped to the table)
  // so the scan loop doesn't pay repeated vector growth.
  out.ids.reserve(static_cast<size_t>(
      std::max(0.0, std::min(node->stats.est_rows,
                             static_cast<double>(table.num_rows())))));

  switch (node->op) {
    case PhysOp::kTableScan:
    case PhysOp::kColumnstoreScan: {
      node->stats.actual_access_rows += static_cast<double>(table.num_rows());
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (RowMatchesBound(residual, r)) {
          out.ids.push_back(static_cast<uint32_t>(r));
        }
      }
      break;
    }
    case PhysOp::kIndexScan: {
      const BTreeIndex* idx = indexes_->GetOrBuild(node->index);
      node->stats.actual_access_rows += static_cast<double>(table.num_rows());
      for (uint32_t r : idx->ScanAll()) {
        if (RowMatchesBound(residual, r)) out.ids.push_back(r);
      }
      break;
    }
    case PhysOp::kIndexSeek: {
      const BTreeIndex* idx = indexes_->GetOrBuild(node->index);
      const KeyRange range = BuildSeekRange(*db_, *node);
      const std::vector<uint32_t> hits = idx->SeekRange(range);
      node->stats.actual_access_rows += static_cast<double>(hits.size());
      for (uint32_t r : hits) {
        if (RowMatchesBound(residual, r)) out.ids.push_back(r);
      }
      break;
    }
    default:
      AIMAI_CHECK_MSG(false, "not an access operator");
  }
  return out;
}

RowSet Executor::ExecuteInner(PlanNode* node, double outer_value,
                              int join_col) {
  RowSet out;
  switch (node->op) {
    case PhysOp::kFilter: {
      out = ExecuteInner(node->child(0), outer_value, join_col);
      const Table& table = db_->table(out.tables[0]);
      const auto residual = BindConjunction(*db_, table, node->residual_preds);
      RowSet filtered;
      filtered.tables = out.tables;
      for (uint32_t r : out.ids) {
        if (RowMatchesBound(residual, r)) filtered.ids.push_back(r);
      }
      out = std::move(filtered);
      break;
    }
    case PhysOp::kKeyLookup: {
      out = ExecuteInner(node->child(0), outer_value, join_col);
      break;  // Lookup fetches columns; row composition is unchanged.
    }
    case PhysOp::kIndexSeek: {
      AIMAI_CHECK_MSG(!node->index.key_columns.empty() &&
                          node->index.key_columns[0] == join_col,
                      "inner seek index must lead with the join column");
      const BTreeIndex* idx = indexes_->GetOrBuild(node->index);
      KeyRange range;
      range.lower = {outer_value};
      range.upper = {outer_value};
      range.has_lower = range.has_upper = true;
      const Table& table = db_->table(node->table_id);
      const auto residual = BindConjunction(*db_, table, node->residual_preds);
      out.tables = {node->table_id};
      // A NaN outer value equals no key, so its seek qualifies nothing.
      const std::vector<uint32_t> hits =
          outer_value == outer_value ? idx->SeekRange(range)
                                     : std::vector<uint32_t>{};
      node->stats.actual_access_rows += static_cast<double>(hits.size());
      for (uint32_t r : hits) {
        if (RowMatchesBound(residual, r)) out.ids.push_back(r);
      }
      break;
    }
    case PhysOp::kTableScan: {
      const Table& table = db_->table(node->table_id);
      const Column& jc = table.column(static_cast<size_t>(join_col));
      const auto residual = BindConjunction(*db_, table, node->residual_preds);
      out.tables = {node->table_id};
      node->stats.actual_access_rows += static_cast<double>(table.num_rows());
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (JoinKeysEqual(jc.NumericAt(r), outer_value) &&
            RowMatchesBound(residual, r)) {
          out.ids.push_back(static_cast<uint32_t>(r));
        }
      }
      break;
    }
    default:
      AIMAI_CHECK_MSG(false, "unsupported nested-loop inner operator");
  }
  Record(node, out.size());
  return out;
}

ExecResult Executor::ExecuteNode(PlanNode* node) {
  ExecResult result;
  switch (node->op) {
    case PhysOp::kTableScan:
    case PhysOp::kColumnstoreScan:
    case PhysOp::kIndexScan:
    case PhysOp::kIndexSeek: {
      result.rows = ExecuteAccess(node);
      break;
    }
    case PhysOp::kKeyLookup: {
      ExecResult child = ExecuteNode(node->child(0));
      AIMAI_CHECK(!child.is_agg);
      result.rows = std::move(child.rows);
      break;
    }
    case PhysOp::kFilter: {
      ExecResult child = ExecuteNode(node->child(0));
      AIMAI_CHECK(!child.is_agg);
      AIMAI_CHECK(!node->residual_preds.empty());
      const int filter_table = node->residual_preds[0].table_id;
      const int slot = child.rows.SlotOf(filter_table);
      AIMAI_CHECK(slot >= 0);
      const Table& table = db_->table(filter_table);
      const auto residual = BindConjunction(*db_, table, node->residual_preds);
      result.rows.tables = child.rows.tables;
      result.rows.ids.reserve(child.rows.ids.size());
      for (size_t t = 0; t < child.rows.size(); ++t) {
        const uint32_t* tuple = child.rows.Tuple(t);
        if (RowMatchesBound(residual, tuple[static_cast<size_t>(slot)])) {
          result.rows.Append(tuple);
        }
      }
      break;
    }
    case PhysOp::kNestedLoopJoin: {
      ExecResult outer = ExecuteNode(node->child(0));
      AIMAI_CHECK(!outer.is_agg);
      PlanNode* inner = node->child(1);
      // Inner nodes start fresh; ExecuteInner accumulates per rebind.
      // Output layout: outer tables, then the inner chain's leaf table.
      PlanNode* leaf = inner;
      while (!leaf->children.empty()) leaf = leaf->child(0);
      RowSet& rows = result.rows;
      rows.tables = outer.rows.tables;
      rows.tables.push_back(leaf->table_id);
      const ColumnRef outer_col = node->join.left;
      const int inner_join_col = node->join.right.column_id;
      for (size_t t = 0; t < outer.rows.size(); ++t) {
        const double v = TupleValue(*db_, outer.rows, outer_col, t);
        const RowSet matches = ExecuteInner(inner, v, inner_join_col);
        for (uint32_t m : matches.ids) {
          rows.Append(outer.rows.Tuple(t), outer.rows.width(), &m, 1);
        }
      }
      break;
    }
    case PhysOp::kHashJoin: {
      ExecResult build = ExecuteNode(node->child(0));
      ExecResult probe = ExecuteNode(node->child(1));
      AIMAI_CHECK(!build.is_agg && !probe.is_agg);
      result.rows = HashJoinRows(*db_, build.rows, node->join.left,
                                 probe.rows, node->join.right);
      break;
    }
    case PhysOp::kMergeJoin: {
      ExecResult left = ExecuteNode(node->child(0));
      ExecResult right = ExecuteNode(node->child(1));
      AIMAI_CHECK(!left.is_agg && !right.is_agg);
      result.rows = MergeJoinRows(*db_, left.rows, node->join.left,
                                  right.rows, node->join.right);
      break;
    }
    case PhysOp::kSort: {
      ExecResult child = ExecuteNode(node->child(0));
      if (child.is_agg) {
        SortAggResult(&child.agg);
        result = std::move(child);
      } else {
        SortRows(*db_, &child.rows, node->sort_keys);
        result.rows = std::move(child.rows);
      }
      break;
    }
    case PhysOp::kHashAggregate:
    case PhysOp::kStreamAggregate: {
      ExecResult child = ExecuteNode(node->child(0));
      AIMAI_CHECK(!child.is_agg);
      result.is_agg = true;
      result.agg = AggregateRows(*db_, child.rows, node->group_by,
                                 node->aggregates);
      break;
    }
    case PhysOp::kTop: {
      ExecResult child = ExecuteNode(node->child(0));
      const size_t n = static_cast<size_t>(node->top_n);
      if (child.is_agg) {
        if (child.agg.size() > n) {
          child.agg.group_keys.resize(n);
          child.agg.agg_values.resize(n);
        }
      } else {
        child.rows.Truncate(n);
      }
      result = std::move(child);
      break;
    }
  }
  Record(node, result.size());
  return result;
}

}  // namespace aimai

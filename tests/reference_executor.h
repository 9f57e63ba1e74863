// Test-local reference for the executor: the row-at-a-time interpreter.
// Every operator walks base-table row ids one tuple at a time through
// std::unordered_map hash joins, a two-cursor merge join, std::stable_sort
// and a per-row aggregate loop, and a nested-loop join re-executes its
// inner chain once per outer tuple. Slow, but it shares no operator code
// with the batch engine, so it is the oracle `Executor::Execute` must match
// bit for bit: results (order included), every node's actual_rows /
// actual_executions / actual_access_rows / executed, and therefore
// ExecutionCostModel::ComputeActualCost — the numbers the training labels
// are made of. NaiveEvaluate in exec_test.cc pins this oracle's row and
// group counts to a brute-force evaluator.

#ifndef AIMAI_TESTS_REFERENCE_EXECUTOR_H_
#define AIMAI_TESTS_REFERENCE_EXECUTOR_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "exec/execution_cost.h"
#include "exec/executor.h"

namespace aimai {
namespace testing_ref {

/// Fetches the numeric view of `col` for tuple `t` of `rs`.
inline double TupleValue(const Database& db, const RowSet& rs, ColumnRef col,
                         size_t t) {
  const int slot = rs.SlotOf(col.table_id);
  AIMAI_CHECK_MSG(slot >= 0, "column's table not in rowset");
  const uint32_t row = rs.Tuple(t)[static_cast<size_t>(slot)];
  return db.table(col.table_id)
      .column(static_cast<size_t>(col.column_id))
      .NumericAt(row);
}

/// Hash join: build on `build` side using `build_col`, probe with `probe`
/// using `probe_col`. Output tuple layout: probe tables followed by build
/// tables (probe side streams). Output order is canonical: probe order,
/// and within one probe tuple its build matches in build-input order.
inline RowSet HashJoinRows(const Database& db, const RowSet& build,
                           ColumnRef build_col, const RowSet& probe,
                           ColumnRef probe_col) {
  RowSet out;
  out.tables = probe.tables;
  out.tables.insert(out.tables.end(), build.tables.begin(),
                    build.tables.end());

  // Each key keeps its build tuples in input order. NaN keys are left out
  // (they can never compare equal); -0.0 and 0.0 share one entry because
  // std::hash<double> must agree with ==.
  std::unordered_map<double, std::vector<size_t>> table;
  table.reserve(build.size());
  for (size_t t = 0; t < build.size(); ++t) {
    const double v = TupleValue(db, build, build_col, t);
    if (v != v) continue;
    table[v].push_back(t);
  }
  for (size_t t = 0; t < probe.size(); ++t) {
    auto it = table.find(TupleValue(db, probe, probe_col, t));
    if (it == table.end()) continue;
    for (size_t b : it->second) {
      out.Append(probe.Tuple(t), probe.width(), build.Tuple(b),
                 build.width());
    }
  }
  return out;
}

/// Merge join of two inputs sorted on their join columns (in SortKeyLess
/// order). Each equal-key block emits its cross product, left-major.
inline RowSet MergeJoinRows(const Database& db, const RowSet& left,
                            ColumnRef left_col, const RowSet& right,
                            ColumnRef right_col) {
  RowSet out;
  out.tables = left.tables;
  out.tables.insert(out.tables.end(), right.tables.begin(),
                    right.tables.end());

  size_t i = 0, j = 0;
  const size_t n = left.size(), m = right.size();
  while (i < n && j < m) {
    const double lv = TupleValue(db, left, left_col, i);
    const double rv = TupleValue(db, right, right_col, j);
    // NaN keys sort last and match nothing: nothing further can join.
    if (lv != lv || rv != rv) break;
    if (lv < rv) {
      ++i;
    } else if (lv > rv) {
      ++j;
    } else {
      // Equal block: find extents on both sides, emit cross product.
      size_t i_end = i;
      while (i_end < n && TupleValue(db, left, left_col, i_end) == lv) ++i_end;
      size_t j_end = j;
      while (j_end < m && TupleValue(db, right, right_col, j_end) == rv) {
        ++j_end;
      }
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          out.Append(left.Tuple(a), left.width(), right.Tuple(b),
                     right.width());
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return out;
}

/// In-place stable sort by key columns: ties keep their input order.
inline void SortRows(const Database& db, RowSet* rs,
                     const std::vector<SortKey>& keys) {
  struct KeyAccessor {
    const Column* col;
    size_t slot;
    bool ascending;
  };
  std::vector<KeyAccessor> acc;
  acc.reserve(keys.size());
  for (const SortKey& k : keys) {
    const int slot = rs->SlotOf(k.col.table_id);
    AIMAI_CHECK(slot >= 0);
    acc.push_back({&db.table(k.col.table_id)
                        .column(static_cast<size_t>(k.col.column_id)),
                   static_cast<size_t>(slot), k.ascending});
  }
  std::vector<size_t> order(rs->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&acc, rs](size_t a, size_t b) {
                     const uint32_t* ta = rs->Tuple(a);
                     const uint32_t* tb = rs->Tuple(b);
                     for (const KeyAccessor& k : acc) {
                       const double av = k.col->NumericAt(ta[k.slot]);
                       const double bv = k.col->NumericAt(tb[k.slot]);
                       if (SortKeyLess(av, bv)) return k.ascending;
                       if (SortKeyLess(bv, av)) return !k.ascending;
                     }
                     return false;
                   });
  std::vector<uint32_t> sorted;
  sorted.reserve(rs->ids.size());
  for (size_t i : order) {
    sorted.insert(sorted.end(), rs->Tuple(i), rs->Tuple(i) + rs->width());
  }
  rs->ids = std::move(sorted);
}

// Consistent with the key's `==`: -0.0 hashes as 0.0, so group identity
// is exactly component-wise `==` (and a NaN key never finds a group).
struct VecHash {
  size_t operator()(const std::vector<double>& v) const {
    size_t h = 1469598103934665603ULL;
    for (double x : v) {
      const double d = x == 0 ? 0.0 : x;
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(d));
      h ^= bits;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// Groups `input` by `group_by` columns computing `aggs`, for hash and
/// stream aggregates alike (they differ only in cost, not result). Groups
/// are registered and emitted in first-seen input order; each accumulator
/// adds its rows sequentially in input order.
inline AggResult AggregateRows(const Database& db, const RowSet& input,
                               const std::vector<ColumnRef>& group_by,
                               const std::vector<AggItem>& aggs) {
  struct AggState {
    double count = 0;
    std::vector<double> sum;
    std::vector<double> min;
    std::vector<double> max;
  };
  std::unordered_map<std::vector<double>, size_t, VecHash> index;
  std::vector<std::vector<double>> keys;
  std::vector<AggState> states;
  const size_t na = aggs.size();
  for (size_t t = 0; t < input.size(); ++t) {
    std::vector<double> key;
    key.reserve(group_by.size());
    for (const ColumnRef& c : group_by) {
      key.push_back(TupleValue(db, input, c, t));
    }
    auto [it, inserted] = index.emplace(std::move(key), states.size());
    if (inserted) {
      keys.push_back(it->first);
      states.emplace_back();
    }
    AggState& st = states[it->second];
    if (st.sum.empty() && na > 0) {
      st.sum.assign(na, 0.0);
      st.min.assign(na, std::numeric_limits<double>::infinity());
      st.max.assign(na, -std::numeric_limits<double>::infinity());
    }
    st.count += 1;
    for (size_t a = 0; a < na; ++a) {
      if (aggs[a].func == AggFunc::kCount) continue;
      const double v = TupleValue(db, input, aggs[a].col, t);
      st.sum[a] += v;
      st.min[a] = std::min(st.min[a], v);
      st.max[a] = std::max(st.max[a], v);
    }
  }

  AggResult out;
  out.group_keys.reserve(states.size());
  out.agg_values.reserve(states.size());
  for (size_t g = 0; g < states.size(); ++g) {
    AggState& st = states[g];
    out.group_keys.push_back(std::move(keys[g]));
    std::vector<double> vals(na, 0.0);
    for (size_t a = 0; a < na; ++a) {
      switch (aggs[a].func) {
        case AggFunc::kCount:
          vals[a] = st.count;
          break;
        case AggFunc::kSum:
          vals[a] = st.sum[a];
          break;
        case AggFunc::kAvg:
          vals[a] = st.count > 0 ? st.sum[a] / st.count : 0;
          break;
        case AggFunc::kMin:
          vals[a] = st.min[a];
          break;
        case AggFunc::kMax:
          vals[a] = st.max[a];
          break;
      }
    }
    out.agg_values.push_back(std::move(vals));
  }
  return out;
}

/// The row-at-a-time plan interpreter behind ReferenceExecute.
class RowInterpreter {
 public:
  RowInterpreter(const Database* db, IndexManager* indexes)
      : db_(db), indexes_(indexes) {}

  ExecResult ExecuteNode(PlanNode* node) {
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
        const auto residual =
            BindConjunction(*db_, table, node->residual_preds);
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

 private:
  static void Record(PlanNode* node, size_t out_rows) {
    node->stats.actual_rows += static_cast<double>(out_rows);
    node->stats.actual_executions += 1;
    node->stats.executed = true;
  }

  /// Leaf access operators (scans / seeks).
  RowSet ExecuteAccess(PlanNode* node) {
    RowSet out;
    out.tables = {node->table_id};
    const Table& table = db_->table(node->table_id);
    const auto residual = BindConjunction(*db_, table, node->residual_preds);
    out.ids.reserve(static_cast<size_t>(
        std::max(0.0, std::min(node->stats.est_rows,
                               static_cast<double>(table.num_rows())))));
    switch (node->op) {
      case PhysOp::kTableScan:
      case PhysOp::kColumnstoreScan: {
        node->stats.actual_access_rows +=
            static_cast<double>(table.num_rows());
        for (size_t r = 0; r < table.num_rows(); ++r) {
          if (RowMatchesBound(residual, r)) {
            out.ids.push_back(static_cast<uint32_t>(r));
          }
        }
        break;
      }
      case PhysOp::kIndexScan: {
        const BTreeIndex* idx = indexes_->GetOrBuild(node->index);
        node->stats.actual_access_rows +=
            static_cast<double>(table.num_rows());
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

  /// Executes the inner side of a nested-loop join for one outer value.
  /// Supported inner shapes: [Filter ->] [KeyLookup ->] IndexSeek, or
  /// [Filter ->] TableScan. Accumulates stats into the inner nodes. A NaN
  /// outer value matches nothing: a seek qualifies no rows, a scan still
  /// examines the whole table.
  RowSet ExecuteInner(PlanNode* node, double outer_value, int join_col) {
    RowSet out;
    switch (node->op) {
      case PhysOp::kFilter: {
        out = ExecuteInner(node->child(0), outer_value, join_col);
        const Table& table = db_->table(out.tables[0]);
        const auto residual =
            BindConjunction(*db_, table, node->residual_preds);
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
        const auto residual =
            BindConjunction(*db_, table, node->residual_preds);
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
        const auto residual =
            BindConjunction(*db_, table, node->residual_preds);
        out.tables = {node->table_id};
        node->stats.actual_access_rows +=
            static_cast<double>(table.num_rows());
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

  const Database* db_;
  IndexManager* indexes_;
};

/// Executes `plan` row at a time: resets every node's actual stats, then
/// fills actual_rows / actual_executions / actual_access_rows / executed
/// exactly as `Executor::Execute` must. Returns the root's result.
inline ExecResult ReferenceExecute(const Database& db, IndexManager* indexes,
                                   PhysicalPlan* plan) {
  AIMAI_CHECK(plan != nullptr && plan->root != nullptr);
  plan->root->VisitMutable([](PlanNode* n) {
    n->stats.actual_rows = 0;
    n->stats.actual_executions = 0;
    n->stats.actual_access_rows = 0;
    n->stats.actual_cost = 0;
    n->stats.executed = false;
  });
  RowInterpreter interpreter(&db, indexes);
  return interpreter.ExecuteNode(plan->root.get());
}

// --------------------------------------------------------- parity helper

/// Snapshot of the executor-written fields of one node.
struct NodeSnapshot {
  PhysOp op;
  double actual_rows;
  double actual_executions;
  double actual_access_rows;
  bool executed;

  bool operator==(const NodeSnapshot& o) const {
    return op == o.op && actual_rows == o.actual_rows &&
           actual_executions == o.actual_executions &&
           actual_access_rows == o.actual_access_rows &&
           executed == o.executed;
  }
};

/// The executor-written fields of every node, in pre-order.
inline std::vector<NodeSnapshot> SnapshotStats(const PlanNode& root) {
  std::vector<NodeSnapshot> out;
  root.Visit([&out](const PlanNode& n) {
    out.push_back({n.op, n.stats.actual_rows, n.stats.actual_executions,
                   n.stats.actual_access_rows, n.stats.executed});
  });
  return out;
}

/// Executes fresh clones of `plan` through `Executor` and ReferenceExecute
/// and asserts bit-identical results (order included), per-node actual
/// stats, and ComputeActualCost totals. Returns the reference-executed
/// clone, costed, for further checks.
inline std::unique_ptr<PhysicalPlan> ExpectMatchesReference(
    const Database& db, IndexManager* indexes, const PhysicalPlan& plan,
    const std::string& context) {
  auto ref_plan = plan.Clone();
  auto exec_plan = plan.Clone();
  const ExecResult ref = ReferenceExecute(db, indexes, ref_plan.get());
  Executor exec(&db, indexes);
  const ExecResult got = exec.Execute(exec_plan.get());

  // Exact FP equality, group and row order included. The side a result
  // does not use stays empty.
  EXPECT_EQ(ref.is_agg, got.is_agg) << context;
  EXPECT_EQ(ref.agg.group_keys, got.agg.group_keys) << context;
  EXPECT_EQ(ref.agg.agg_values, got.agg.agg_values) << context;
  EXPECT_EQ(ref.rows.tables, got.rows.tables) << context;
  EXPECT_EQ(ref.rows.ids, got.rows.ids) << context;
  EXPECT_EQ(SnapshotStats(*ref_plan->root), SnapshotStats(*exec_plan->root))
      << context;

  // Exact: same stats in, same pure function.
  ExecutionCostModel model(&db);
  EXPECT_EQ(model.ComputeActualCost(ref_plan.get()),
            model.ComputeActualCost(exec_plan.get()))
      << context;
  return ref_plan;
}

}  // namespace testing_ref
}  // namespace aimai

#endif  // AIMAI_TESTS_REFERENCE_EXECUTOR_H_

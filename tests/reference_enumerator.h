// Test-local reference for the plan enumerator: the straightforward
// build-and-annotate-every-candidate search. Every join candidate (hash
// join both ways, merge join over two sorts, nested loops) is built as a
// deep copy of its inputs and annotated in full, then all but the cheapest
// are dropped; the aggregation and parallelism choices clone the tree too.
// Slow, but it prices nothing by arithmetic, so it is the oracle the
// production PlanEnumerator must match bit for bit (plans, est_* fields,
// est_total_cost) — the role NaiveEvaluate plays for the executors.

#ifndef AIMAI_TESTS_REFERENCE_ENUMERATOR_H_
#define AIMAI_TESTS_REFERENCE_ENUMERATOR_H_

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/check.h"
#include "optimizer/plan_enumerator.h"

namespace aimai {
namespace testing_ref {

class ReferenceEnumerator {
 public:
  using Options = PlanEnumerator::Options;

  ReferenceEnumerator(const Database* db, StatisticsCatalog* stats,
                      Options options);

  /// Returns the cheapest (by estimated cost) physical plan for `query`
  /// under `config`. Every node carries est_rows / est_access_rows /
  /// est_executions / est_cost / est_bytes*.
  std::unique_ptr<PhysicalPlan> Optimize(const QuerySpec& query,
                                         const Configuration& config);

 private:
  struct AccessPath {
    std::unique_ptr<PlanNode> plan;
    double rows = 0;
  };

  /// Cheapest access path for one table given the configuration.
  AccessPath BestAccessPath(const QuerySpec& query, int table_id,
                            const Configuration& config);

  /// Builds the parameterized inner side of a nested-loop join on
  /// `join_col` of `table_id`, or nullptr if no viable inner exists.
  std::unique_ptr<PlanNode> BuildNljInner(const QuerySpec& query,
                                          int table_id, int join_col,
                                          const Configuration& config,
                                          double outer_rows);

  /// Join-order search over the access paths.
  std::unique_ptr<PlanNode> EnumerateJoins(
      const QuerySpec& query, const Configuration& config,
      std::vector<AccessPath> base_paths, double* out_rows);

  /// Builds one join node candidate (cloning children) and annotates it.
  std::unique_ptr<PlanNode> MakeJoin(PhysOp op, const PlanNode& left,
                                     const PlanNode& right, ColumnRef left_col,
                                     ColumnRef right_col, double out_rows);

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

namespace ref_detail {

/// Columns of `table_id` referenced by the query, as ColumnRefs.
inline std::vector<ColumnRef> RefColumns(const QuerySpec& q, int table_id) {
  std::vector<ColumnRef> out;
  for (int c : q.ReferencedColumns(table_id)) {
    out.push_back(ColumnRef{table_id, c});
  }
  return out;
}

/// Whether `idx` covers every column in `cols`.
inline bool CoversAll(const IndexDef& idx, const std::vector<int>& cols) {
  for (int c : cols) {
    if (!idx.Covers(c)) return false;
  }
  return true;
}

/// Splits `preds` by whether their column is covered by `idx`.
inline void SplitByCoverage(const std::vector<Predicate>& preds, const IndexDef& idx,
                     std::vector<Predicate>* covered,
                     std::vector<Predicate>* uncovered) {
  for (const Predicate& p : preds) {
    if (idx.Covers(p.column_id)) {
      covered->push_back(p);
    } else {
      uncovered->push_back(p);
    }
  }
}

/// Batch-mode decision at node construction time.
inline ExecMode JoinMode(PhysOp op, const PlanNode& l, const PlanNode& r) {
  if (op == PhysOp::kHashJoin &&
      (l.mode == ExecMode::kBatch || r.mode == ExecMode::kBatch)) {
    return ExecMode::kBatch;
  }
  return ExecMode::kRow;
}

struct SeekAnalysis {
  bool usable = false;
  std::vector<Predicate> seek_preds;
};

/// Sargability: an equality prefix of the index key, optionally followed
/// by one range column.
inline SeekAnalysis AnalyzeSeek(const Database& db,
                         const std::vector<Predicate>& preds,
                         const IndexDef& idx) {
  SeekAnalysis out;
  const auto bounds = ResolveConjunction(db, preds);
  auto bounds_of = [&bounds](int col) -> const NumericBounds* {
    for (const auto& [c, b] : bounds) {
      if (c == col) return &b;
    }
    return nullptr;
  };
  std::set<int> consumed;
  for (int key_col : idx.key_columns) {
    const NumericBounds* b = bounds_of(key_col);
    if (b == nullptr) break;
    const bool is_eq = b->has_lo && b->has_hi && !b->lo_open && !b->hi_open &&
                       b->lo == b->hi;
    consumed.insert(key_col);
    if (!is_eq) break;  // Range column terminates the seek prefix.
  }
  if (consumed.empty()) return out;
  out.usable = true;
  for (const Predicate& p : preds) {
    if (consumed.count(p.column_id) > 0) out.seek_preds.push_back(p);
  }
  return out;
}

}  // namespace ref_detail

using namespace ref_detail;

inline ReferenceEnumerator::ReferenceEnumerator(const Database* db,
                                         StatisticsCatalog* stats,
                                         Options options)
    : db_(db),
      stats_(stats),
      card_(stats),
      cost_model_(db),
      options_(options) {}

inline ReferenceEnumerator::AccessPath ReferenceEnumerator::BestAccessPath(
    const QuerySpec& q, int table_id, const Configuration& config) {
  const std::vector<Predicate> preds = q.PredicatesOn(table_id);
  const std::vector<int> refcols = q.ReferencedColumns(table_id);
  const std::vector<ColumnRef> ref_refs = RefColumns(q, table_id);
  const double table_rows = stats_->TableRows(table_id);
  const double est_out = card_.EstimateFilteredRows(table_id, preds);

  std::vector<std::unique_ptr<PlanNode>> candidates;

  // 1. Heap scan.
  {
    auto scan = std::make_unique<PlanNode>();
    scan->op = PhysOp::kTableScan;
    scan->table_id = table_id;
    scan->residual_preds = preds;
    scan->output_columns = ref_refs;
    scan->stats.est_rows = est_out;
    scan->stats.est_access_rows = table_rows;
    candidates.push_back(std::move(scan));
  }

  for (const IndexDef& idx : config.IndexesOn(table_id)) {
    // 2. Columnstore scan (batch mode).
    if (idx.is_columnstore) {
      auto scan = std::make_unique<PlanNode>();
      scan->op = PhysOp::kColumnstoreScan;
      scan->mode = ExecMode::kBatch;
      scan->table_id = table_id;
      scan->index = idx;
      scan->residual_preds = preds;
      scan->output_columns = ref_refs;
      scan->stats.est_rows = est_out;
      scan->stats.est_access_rows = table_rows;
      candidates.push_back(std::move(scan));
      continue;
    }

    const SeekAnalysis seek = AnalyzeSeek(*db_, preds, idx);
    const bool covers = CoversAll(idx, refcols);

    if (!seek.usable) {
      // 3. Covering index scan: narrower rows than the heap.
      if (covers) {
        auto scan = std::make_unique<PlanNode>();
        scan->op = PhysOp::kIndexScan;
        scan->table_id = table_id;
        scan->index = idx;
        scan->residual_preds = preds;
        scan->output_columns = ref_refs;
        scan->stats.est_rows = est_out;
        scan->stats.est_access_rows = table_rows;
        candidates.push_back(std::move(scan));
      }
      continue;
    }

    // 4. Index seek [+ key lookup [+ filter]].
    std::vector<Predicate> covered;
    std::vector<Predicate> uncovered;
    SplitByCoverage(preds, idx, &covered, &uncovered);
    // Residual at the seek: covered predicates not already in the seek.
    std::vector<Predicate> seek_residual;
    for (const Predicate& p : covered) {
      bool in_seek = false;
      for (const Predicate& sp : seek.seek_preds) {
        if (sp.column_id == p.column_id && sp.op == p.op) {
          in_seek = true;
          break;
        }
      }
      if (!in_seek) seek_residual.push_back(p);
    }

    const double seek_sel =
        card_.ConjunctionSelectivity(table_id, seek.seek_preds);
    const double covered_sel = card_.ConjunctionSelectivity(table_id, covered);

    auto seek_node = std::make_unique<PlanNode>();
    seek_node->op = PhysOp::kIndexSeek;
    seek_node->table_id = table_id;
    seek_node->index = idx;
    seek_node->seek_preds = seek.seek_preds;
    seek_node->residual_preds = seek_residual;
    seek_node->stats.est_access_rows = table_rows * seek_sel;
    seek_node->stats.est_rows = table_rows * covered_sel;
    // The seek outputs the covered subset of the referenced columns.
    for (const ColumnRef& c : ref_refs) {
      if (idx.Covers(c.column_id)) seek_node->output_columns.push_back(c);
    }

    std::unique_ptr<PlanNode> top = std::move(seek_node);
    if (!covers) {
      auto lookup = std::make_unique<PlanNode>();
      lookup->op = PhysOp::kKeyLookup;
      lookup->table_id = table_id;
      lookup->output_columns = ref_refs;
      lookup->stats.est_rows = top->stats.est_rows;
      lookup->children.push_back(std::move(top));
      top = std::move(lookup);
      if (!uncovered.empty()) {
        auto filter = std::make_unique<PlanNode>();
        filter->op = PhysOp::kFilter;
        filter->residual_preds = uncovered;
        filter->output_columns = ref_refs;
        filter->stats.est_rows = est_out;
        filter->children.push_back(std::move(top));
        top = std::move(filter);
      }
    }
    candidates.push_back(std::move(top));
  }

  AccessPath best;
  best.rows = est_out;
  double best_cost = 0;
  for (auto& cand : candidates) {
    const double cost = Annotate(cand.get());
    if (best.plan == nullptr || cost < best_cost) {
      best_cost = cost;
      best.plan = std::move(cand);
    }
  }
  return best;
}

inline std::unique_ptr<PlanNode> ReferenceEnumerator::BuildNljInner(
    const QuerySpec& q, int table_id, int join_col,
    const Configuration& config, double outer_rows) {
  const std::vector<Predicate> preds = q.PredicatesOn(table_id);
  const std::vector<int> refcols = q.ReferencedColumns(table_id);
  const std::vector<ColumnRef> ref_refs = RefColumns(q, table_id);
  const double table_rows = stats_->TableRows(table_id);
  const double ndv =
      std::max(1.0, stats_->DistinctCount(table_id, join_col));
  const double execs = std::max(1.0, outer_rows);

  std::vector<std::unique_ptr<PlanNode>> candidates;

  for (const IndexDef& idx : config.IndexesOn(table_id)) {
    if (idx.is_columnstore || idx.key_columns.empty()) continue;
    if (idx.key_columns[0] != join_col) continue;
    const bool covers = CoversAll(idx, refcols);
    std::vector<Predicate> covered;
    std::vector<Predicate> uncovered;
    SplitByCoverage(preds, idx, &covered, &uncovered);
    const double covered_sel = card_.ConjunctionSelectivity(table_id, covered);
    const double uncovered_sel =
        card_.ConjunctionSelectivity(table_id, uncovered);

    auto seek = std::make_unique<PlanNode>();
    seek->op = PhysOp::kIndexSeek;
    seek->table_id = table_id;
    seek->index = idx;
    seek->residual_preds = covered;
    seek->stats.est_executions = execs;
    seek->stats.est_access_rows = execs * table_rows / ndv;
    seek->stats.est_rows = seek->stats.est_access_rows * covered_sel;
    for (const ColumnRef& c : ref_refs) {
      if (idx.Covers(c.column_id)) seek->output_columns.push_back(c);
    }

    std::unique_ptr<PlanNode> top = std::move(seek);
    if (!covers) {
      auto lookup = std::make_unique<PlanNode>();
      lookup->op = PhysOp::kKeyLookup;
      lookup->table_id = table_id;
      lookup->output_columns = ref_refs;
      lookup->stats.est_executions = execs;
      lookup->stats.est_rows = top->stats.est_rows;
      lookup->children.push_back(std::move(top));
      top = std::move(lookup);
      if (!uncovered.empty()) {
        auto filter = std::make_unique<PlanNode>();
        filter->op = PhysOp::kFilter;
        filter->residual_preds = uncovered;
        filter->output_columns = ref_refs;
        filter->stats.est_executions = execs;
        filter->stats.est_rows =
            top->stats.est_rows * uncovered_sel;
        filter->children.push_back(std::move(top));
        top = std::move(filter);
      }
    }
    candidates.push_back(std::move(top));
  }

  // Last resort: per-row scan of a tiny inner table.
  if (table_rows <= options_.nlj_scan_inner_max_rows) {
    auto scan = std::make_unique<PlanNode>();
    scan->op = PhysOp::kTableScan;
    scan->table_id = table_id;
    scan->residual_preds = preds;
    scan->output_columns = ref_refs;
    scan->stats.est_executions = execs;
    scan->stats.est_access_rows = execs * table_rows;
    scan->stats.est_rows =
        execs * card_.EstimateFilteredRows(table_id, preds) / ndv;
    candidates.push_back(std::move(scan));
  }

  std::unique_ptr<PlanNode> best;
  double best_cost = 0;
  for (auto& cand : candidates) {
    const double cost = Annotate(cand.get());
    if (best == nullptr || cost < best_cost) {
      best_cost = cost;
      best = std::move(cand);
    }
  }
  return best;
}

inline std::unique_ptr<PlanNode> ReferenceEnumerator::MakeJoin(PhysOp op,
                                                   const PlanNode& left,
                                                   const PlanNode& right,
                                                   ColumnRef left_col,
                                                   ColumnRef right_col,
                                                   double out_rows) {
  auto node = std::make_unique<PlanNode>();
  node->op = op;
  node->join.left = left_col;
  node->join.right = right_col;
  node->stats.est_rows = out_rows;

  if (op == PhysOp::kMergeJoin) {
    // Sort both inputs on the join columns.
    auto sort_l = std::make_unique<PlanNode>();
    sort_l->op = PhysOp::kSort;
    sort_l->sort_keys = {SortKey{left_col, true}};
    sort_l->output_columns = left.output_columns;
    sort_l->output_width_bytes = left.output_width_bytes;
    sort_l->stats.est_rows = left.stats.est_rows;
    sort_l->children.push_back(left.Clone());
    auto sort_r = std::make_unique<PlanNode>();
    sort_r->op = PhysOp::kSort;
    sort_r->sort_keys = {SortKey{right_col, true}};
    sort_r->output_columns = right.output_columns;
    sort_r->output_width_bytes = right.output_width_bytes;
    sort_r->stats.est_rows = right.stats.est_rows;
    sort_r->children.push_back(right.Clone());
    node->children.push_back(std::move(sort_l));
    node->children.push_back(std::move(sort_r));
  } else {
    node->children.push_back(left.Clone());
    node->children.push_back(right.Clone());
  }
  node->mode = JoinMode(op, *node->child(0), *node->child(1));
  node->output_columns = node->child(0)->output_columns;
  node->output_columns.insert(node->output_columns.end(),
                              node->child(1)->output_columns.begin(),
                              node->child(1)->output_columns.end());
  Annotate(node.get());
  return node;
}

inline std::unique_ptr<PlanNode> ReferenceEnumerator::EnumerateJoins(
    const QuerySpec& q, const Configuration& config,
    std::vector<AccessPath> base_paths, double* out_rows) {
  const size_t n = q.tables.size();
  AIMAI_CHECK(base_paths.size() == n);
  if (n == 1) {
    *out_rows = base_paths[0].rows;
    return std::move(base_paths[0].plan);
  }

  auto table_pos = [&q](int table_id) -> int {
    for (size_t i = 0; i < q.tables.size(); ++i) {
      if (q.tables[i] == table_id) return static_cast<int>(i);
    }
    return -1;
  };

  struct Rel {
    std::unique_ptr<PlanNode> plan;
    double rows = 0;
    double cost = 0;
  };

  // Candidate generation shared by DP and greedy: all join implementations
  // for combining `a` and `b` via `cond` (cond.left on a's side).
  auto best_join = [&](const Rel& a, const Rel& b, ColumnRef a_col,
                       ColumnRef b_col, uint64_t b_mask) -> Rel {
    Rel best;
    const double join_rows = card_.EstimateJoinRows(a.rows, b.rows,
                                                    JoinCond{a_col, b_col});
    auto consider = [&best](std::unique_ptr<PlanNode> cand, double rows) {
      if (cand == nullptr) return;
      const double cost = cand->stats.est_subtree_cost;
      if (best.plan == nullptr || cost < best.cost) {
        best.plan = std::move(cand);
        best.rows = rows;
        best.cost = cost;
      }
    };
    // Hash join, both build orientations.
    consider(MakeJoin(PhysOp::kHashJoin, *a.plan, *b.plan, a_col, b_col,
                      join_rows),
             join_rows);
    consider(MakeJoin(PhysOp::kHashJoin, *b.plan, *a.plan, b_col, a_col,
                      join_rows),
             join_rows);
    // Merge join.
    consider(MakeJoin(PhysOp::kMergeJoin, *a.plan, *b.plan, a_col, b_col,
                      join_rows),
             join_rows);
    // Nested loops with b as a single-table parameterized inner.
    if (__builtin_popcountll(b_mask) == 1) {
      std::unique_ptr<PlanNode> inner = BuildNljInner(
          q, b_col.table_id, b_col.column_id, config, a.rows);
      if (inner != nullptr) {
        auto nlj = std::make_unique<PlanNode>();
        nlj->op = PhysOp::kNestedLoopJoin;
        nlj->join.left = a_col;
        nlj->join.right = b_col;
        nlj->stats.est_rows = join_rows;
        nlj->output_columns = a.plan->output_columns;
        nlj->output_columns.insert(nlj->output_columns.end(),
                                   inner->output_columns.begin(),
                                   inner->output_columns.end());
        nlj->children.push_back(a.plan->Clone());
        nlj->children.push_back(std::move(inner));
        Annotate(nlj.get());
        consider(std::move(nlj), join_rows);
      }
    }
    return best;
  };

  // Finds a join condition between two table sets; returns false if none.
  auto connecting_cond = [&](uint64_t mask_a, uint64_t mask_b, ColumnRef* a_col,
                             ColumnRef* b_col) -> bool {
    for (const JoinCond& j : q.joins) {
      const int pl = table_pos(j.left.table_id);
      const int pr = table_pos(j.right.table_id);
      if (pl < 0 || pr < 0) continue;
      const uint64_t ml = 1ULL << pl;
      const uint64_t mr = 1ULL << pr;
      if ((mask_a & ml) && (mask_b & mr)) {
        *a_col = j.left;
        *b_col = j.right;
        return true;
      }
      if ((mask_a & mr) && (mask_b & ml)) {
        *a_col = j.right;
        *b_col = j.left;
        return true;
      }
    }
    return false;
  };

  if (static_cast<int>(n) <= options_.max_dp_tables) {
    // Dynamic programming over connected subsets.
    std::map<uint64_t, Rel> dp;
    for (size_t i = 0; i < n; ++i) {
      Rel r;
      r.rows = base_paths[i].rows;
      r.plan = std::move(base_paths[i].plan);
      r.cost = r.plan->stats.est_subtree_cost;
      dp.emplace(1ULL << i, std::move(r));
    }
    const uint64_t full = (1ULL << n) - 1;
    for (uint64_t s = 3; s <= full; ++s) {
      if (__builtin_popcountll(s) < 2) continue;
      Rel best;
      for (uint64_t a = (s - 1) & s; a != 0; a = (a - 1) & s) {
        const uint64_t b = s & ~a;
        if (b == 0) continue;
        auto ia = dp.find(a);
        auto ib = dp.find(b);
        if (ia == dp.end() || ib == dp.end()) continue;
        ColumnRef a_col, b_col;
        if (!connecting_cond(a, b, &a_col, &b_col)) continue;
        Rel cand = best_join(ia->second, ib->second, a_col, b_col, b);
        if (cand.plan != nullptr &&
            (best.plan == nullptr || cand.cost < best.cost)) {
          best = std::move(cand);
        }
      }
      if (best.plan != nullptr) dp.emplace(s, std::move(best));
    }
    auto it = dp.find(full);
    AIMAI_CHECK_MSG(it != dp.end(), "join graph must be connected");
    *out_rows = it->second.rows;
    return std::move(it->second.plan);
  }

  // Greedy: repeatedly merge the pair with the cheapest combined plan.
  std::vector<std::pair<uint64_t, Rel>> rels;
  for (size_t i = 0; i < n; ++i) {
    Rel r;
    r.rows = base_paths[i].rows;
    r.plan = std::move(base_paths[i].plan);
    r.cost = r.plan->stats.est_subtree_cost;
    rels.emplace_back(1ULL << i, std::move(r));
  }
  while (rels.size() > 1) {
    int best_i = -1, best_j = -1;
    Rel best;
    for (size_t i = 0; i < rels.size(); ++i) {
      for (size_t j = 0; j < rels.size(); ++j) {
        if (i == j) continue;
        ColumnRef a_col, b_col;
        if (!connecting_cond(rels[i].first, rels[j].first, &a_col, &b_col)) {
          continue;
        }
        Rel cand = best_join(rels[i].second, rels[j].second, a_col, b_col,
                             rels[j].first);
        if (cand.plan != nullptr &&
            (best.plan == nullptr || cand.cost < best.cost)) {
          best = std::move(cand);
          best_i = static_cast<int>(i);
          best_j = static_cast<int>(j);
        }
      }
    }
    AIMAI_CHECK_MSG(best.plan != nullptr, "join graph must be connected");
    const uint64_t merged = rels[best_i].first | rels[best_j].first;
    if (best_i > best_j) std::swap(best_i, best_j);
    rels.erase(rels.begin() + best_j);
    rels.erase(rels.begin() + best_i);
    rels.emplace_back(merged, std::move(best));
  }
  *out_rows = rels[0].second.rows;
  return std::move(rels[0].second.plan);
}

inline std::unique_ptr<PlanNode> ReferenceEnumerator::FinishPlan(
    const QuerySpec& q, std::unique_ptr<PlanNode> input, double input_rows) {
  std::unique_ptr<PlanNode> top = std::move(input);
  double rows = input_rows;

  if (q.HasAggregation()) {
    const double groups = card_.EstimateGroups(rows, q.group_by);
    double width = 8.0 * static_cast<double>(q.aggregates.size());
    width += RowWidthBytes(*db_, q.group_by);

    if (q.group_by.empty()) {
      // Scalar aggregate: stream aggregate without sorting.
      auto agg = std::make_unique<PlanNode>();
      agg->op = PhysOp::kStreamAggregate;
      agg->group_by = q.group_by;
      agg->aggregates = q.aggregates;
      agg->output_width_bytes = width;
      agg->stats.est_rows = 1;
      agg->children.push_back(std::move(top));
      top = std::move(agg);
      rows = 1;
    } else {
      // Hash aggregate vs sort + stream aggregate: cost both.
      auto hash_agg = std::make_unique<PlanNode>();
      hash_agg->op = PhysOp::kHashAggregate;
      hash_agg->mode = top->mode == ExecMode::kBatch ? ExecMode::kBatch
                                                     : ExecMode::kRow;
      hash_agg->group_by = q.group_by;
      hash_agg->aggregates = q.aggregates;
      hash_agg->output_width_bytes = width;
      hash_agg->stats.est_rows = groups;
      hash_agg->children.push_back(top->Clone());
      Annotate(hash_agg.get());

      auto sort = std::make_unique<PlanNode>();
      sort->op = PhysOp::kSort;
      for (const ColumnRef& c : q.group_by) {
        sort->sort_keys.push_back(SortKey{c, true});
      }
      sort->output_columns = top->output_columns;
      sort->output_width_bytes = top->output_width_bytes;
      sort->stats.est_rows = rows;
      sort->children.push_back(std::move(top));
      auto stream_agg = std::make_unique<PlanNode>();
      stream_agg->op = PhysOp::kStreamAggregate;
      stream_agg->group_by = q.group_by;
      stream_agg->aggregates = q.aggregates;
      stream_agg->output_width_bytes = width;
      stream_agg->stats.est_rows = groups;
      stream_agg->children.push_back(std::move(sort));
      Annotate(stream_agg.get());

      if (hash_agg->stats.est_subtree_cost <=
          stream_agg->stats.est_subtree_cost) {
        top = std::move(hash_agg);
      } else {
        top = std::move(stream_agg);
      }
      rows = groups;
    }
  }

  if (!q.order_by.empty()) {
    auto sort = std::make_unique<PlanNode>();
    sort->op = PhysOp::kSort;
    sort->sort_keys = q.order_by;
    sort->output_columns = top->output_columns;
    sort->output_width_bytes = top->output_width_bytes;
    sort->stats.est_rows = rows;
    sort->children.push_back(std::move(top));
    top = std::move(sort);
  }

  if (q.top_n > 0) {
    auto topn = std::make_unique<PlanNode>();
    topn->op = PhysOp::kTop;
    topn->top_n = q.top_n;
    topn->output_columns = top->output_columns;
    topn->output_width_bytes = top->output_width_bytes;
    topn->stats.est_rows = std::min(rows, static_cast<double>(q.top_n));
    topn->children.push_back(std::move(top));
    top = std::move(topn);
  }
  return top;
}

inline std::unique_ptr<PhysicalPlan> ReferenceEnumerator::Optimize(
    const QuerySpec& q, const Configuration& config) {
  AIMAI_CHECK(!q.tables.empty());
  std::vector<AccessPath> paths;
  paths.reserve(q.tables.size());
  for (int t : q.tables) {
    paths.push_back(BestAccessPath(q, t, config));
  }
  double join_rows = 0;
  std::unique_ptr<PlanNode> tree =
      EnumerateJoins(q, config, std::move(paths), &join_rows);
  tree = FinishPlan(q, std::move(tree), join_rows);

  auto plan = std::make_unique<PhysicalPlan>();
  plan->root = std::move(tree);
  plan->degree_of_parallelism = 1;
  cost_model_.Annotate(plan.get());

  // Parallelism decision: big serial plans go parallel if the (believed)
  // speedup beats the startup cost.
  if (plan->est_total_cost > options_.parallel_cost_threshold &&
      options_.dop > 1) {
    auto par = plan->Clone();
    par->degree_of_parallelism = options_.dop;
    par->root->VisitMutable([](PlanNode* n) { n->parallel = true; });
    cost_model_.Annotate(par.get());
    if (par->est_total_cost < plan->est_total_cost) plan = std::move(par);
  }
  return plan;
}

}  // namespace testing_ref
}  // namespace aimai

#endif  // AIMAI_TESTS_REFERENCE_ENUMERATOR_H_

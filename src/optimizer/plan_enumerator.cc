#include "optimizer/plan_enumerator.h"

#include <algorithm>
#include <bit>
#include <set>

#include "common/check.h"

namespace aimai {

namespace {

/// Whether `idx` covers every column in `cols`.
bool CoversAll(const IndexDef& idx, const std::vector<int>& cols) {
  for (int c : cols) {
    if (!idx.Covers(c)) return false;
  }
  return true;
}

/// Splits `preds` by whether their column is covered by `idx`.
void SplitByCoverage(const std::vector<Predicate>& preds, const IndexDef& idx,
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

struct SeekAnalysis {
  bool usable = false;
  std::vector<Predicate> seek_preds;
};

/// Sargability: an equality prefix of the index key, optionally followed
/// by one range column.
SeekAnalysis AnalyzeSeek(const Database& db,
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

}  // namespace

PlanEnumerator::PlanEnumerator(const Database* db, StatisticsCatalog* stats,
                               Options options)
    : db_(db),
      stats_(stats),
      card_(stats),
      cost_model_(db),
      options_(options) {}

PlanEnumerator::TableInputs PlanEnumerator::GatherTableInputs(
    const QuerySpec& q, int table_id) {
  TableInputs t;
  t.table_id = table_id;
  t.preds = q.PredicatesOn(table_id);
  t.refcols = q.ReferencedColumns(table_id);
  for (int c : t.refcols) t.ref_refs.push_back(ColumnRef{table_id, c});
  t.table_rows = stats_->TableRows(table_id);
  t.filtered_rows = card_.EstimateFilteredRows(table_id, t.preds);
  return t;
}

PlanEnumerator::AccessPath PlanEnumerator::BestAccessPath(
    const TableInputs& t, const Configuration& config) {
  const int table_id = t.table_id;
  const std::vector<Predicate>& preds = t.preds;
  const std::vector<int>& refcols = t.refcols;
  const std::vector<ColumnRef>& ref_refs = t.ref_refs;
  const double table_rows = t.table_rows;
  const double est_out = t.filtered_rows;

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

std::unique_ptr<PlanNode> PlanEnumerator::BuildNljInner(
    const TableInputs& t, int join_col, const Configuration& config,
    double outer_rows) {
  const int table_id = t.table_id;
  const double ndv =
      std::max(1.0, stats_->DistinctCount(table_id, join_col));
  const double execs = std::max(1.0, outer_rows);

  std::vector<std::unique_ptr<PlanNode>> candidates;

  for (const IndexDef& idx : config.IndexesOn(table_id)) {
    if (idx.is_columnstore || idx.key_columns.empty()) continue;
    if (idx.key_columns[0] != join_col) continue;
    const bool covers = CoversAll(idx, t.refcols);
    std::vector<Predicate> covered;
    std::vector<Predicate> uncovered;
    SplitByCoverage(t.preds, idx, &covered, &uncovered);
    const double covered_sel = card_.ConjunctionSelectivity(table_id, covered);
    const double uncovered_sel =
        card_.ConjunctionSelectivity(table_id, uncovered);

    auto seek = std::make_unique<PlanNode>();
    seek->op = PhysOp::kIndexSeek;
    seek->table_id = table_id;
    seek->index = idx;
    seek->residual_preds = covered;
    seek->stats.est_executions = execs;
    seek->stats.est_access_rows = execs * t.table_rows / ndv;
    seek->stats.est_rows = seek->stats.est_access_rows * covered_sel;
    for (const ColumnRef& c : t.ref_refs) {
      if (idx.Covers(c.column_id)) seek->output_columns.push_back(c);
    }

    std::unique_ptr<PlanNode> top = std::move(seek);
    if (!covers) {
      auto lookup = std::make_unique<PlanNode>();
      lookup->op = PhysOp::kKeyLookup;
      lookup->table_id = table_id;
      lookup->output_columns = t.ref_refs;
      lookup->stats.est_executions = execs;
      lookup->stats.est_rows = top->stats.est_rows;
      lookup->children.push_back(std::move(top));
      top = std::move(lookup);
      if (!uncovered.empty()) {
        auto filter = std::make_unique<PlanNode>();
        filter->op = PhysOp::kFilter;
        filter->residual_preds = uncovered;
        filter->output_columns = t.ref_refs;
        filter->stats.est_executions = execs;
        filter->stats.est_rows = top->stats.est_rows * uncovered_sel;
        filter->children.push_back(std::move(top));
        top = std::move(filter);
      }
    }
    candidates.push_back(std::move(top));
  }

  // Last resort: per-row scan of a tiny inner table.
  if (t.table_rows <= options_.nlj_scan_inner_max_rows) {
    auto scan = std::make_unique<PlanNode>();
    scan->op = PhysOp::kTableScan;
    scan->table_id = table_id;
    scan->residual_preds = t.preds;
    scan->output_columns = t.ref_refs;
    scan->stats.est_executions = execs;
    scan->stats.est_access_rows = execs * t.table_rows;
    scan->stats.est_rows = execs * t.filtered_rows / ndv;
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

namespace {

/// How a join candidate combines its two inputs `a` and `b` (the join
/// condition's `a_col` is on a's side).
enum class JoinImpl : uint8_t {
  kHashAB,  // Hash join, a builds.
  kHashBA,  // Hash join, b builds.
  kMerge,   // Merge join over a sort of each input.
  kNlj,     // Nested loops, a outer, a parameterized inner on b's table.
};

/// A relation as the join search sees it: priced, and built only once it
/// is a base access path or a greedy merge.
struct Rel {
  double rows = 0;       // Cardinality estimate; feeds join estimates.
  double root_rows = 0;  // est_rows of the plan root; feeds parent costs.
  double cost = 0;       // est_subtree_cost of the plan.
  ExecMode mode = ExecMode::kRow;
  std::unique_ptr<PlanNode> plan;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// A candidate's est_subtree_cost from its children's and its own cost,
/// summed in AnnotateNode's order, so it equals the built node's bit for
/// bit.
double SubtreeCost(double child, double own) {
  double subtree = 0;
  subtree += child;
  return subtree + own;
}
double SubtreeCost(double left, double right, double own) {
  double subtree = 0;
  subtree += left;
  subtree += right;
  return subtree + own;
}

}  // namespace

std::unique_ptr<PlanNode> PlanEnumerator::EnumerateJoins(
    const QuerySpec& q, const Configuration& config,
    const std::vector<TableInputs>& tables,
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

  /// The recipe of a priced join: enough to build it once it wins.
  struct JoinChoice {
    JoinImpl impl = JoinImpl::kHashAB;
    ColumnRef a_col;
    ColumnRef b_col;
    double rows = 0;
    double cost = 0;
    ExecMode mode = ExecMode::kRow;
    // kNlj: the outer rows the inner was built for.
    double outer_rows = 0;
    bool valid = false;
  };

  auto table_of = [&](ColumnRef col) -> const TableInputs& {
    return tables[static_cast<size_t>(table_pos(col.table_id))];
  };

  // Prices the join implementations for combining `a` and `b` via
  // (a_col, b_col), in the order hash a-b, hash b-a, merge, nested loops,
  // against `best`: a candidate replaces it only if strictly cheaper, so
  // the first cheapest wins ties. Returns whether any candidate did.
  // Prices come from the inputs' (cost, root rows, mode) alone: a join's
  // or sort's own cost reads nothing else, and SubtreeCost sums in
  // AnnotateNode's order, so a price equals the built node's
  // est_subtree_cost bit for bit.
  auto best_join = [&](const Rel& a, const Rel& b, ColumnRef a_col,
                       ColumnRef b_col, uint64_t b_mask,
                       JoinChoice* best) {
    bool improved = false;
    const double join_rows = card_.EstimateJoinRows(a.rows, b.rows,
                                                    JoinCond{a_col, b_col});
    auto consider = [&](JoinImpl impl, double cost, ExecMode mode) {
      if (best->valid && !(cost < best->cost)) return false;
      best->impl = impl;
      best->a_col = a_col;
      best->b_col = b_col;
      best->rows = join_rows;
      best->cost = cost;
      best->mode = mode;
      best->valid = true;
      improved = true;
      return true;
    };
    const ExecMode hash_mode =
        a.mode == ExecMode::kBatch || b.mode == ExecMode::kBatch
            ? ExecMode::kBatch
            : ExecMode::kRow;
    // Hash join, both build orientations.
    consider(JoinImpl::kHashAB,
             SubtreeCost(a.cost, b.cost,
                         cost_model_.OwnCost(PhysOp::kHashJoin, hash_mode,
                                             join_rows, a.root_rows,
                                             b.root_rows)),
             hash_mode);
    consider(JoinImpl::kHashBA,
             SubtreeCost(b.cost, a.cost,
                         cost_model_.OwnCost(PhysOp::kHashJoin, hash_mode,
                                             join_rows, b.root_rows,
                                             a.root_rows)),
             hash_mode);
    // Merge join over a sort of each input.
    const double sort_a = SubtreeCost(
        a.cost, cost_model_.OwnCost(PhysOp::kSort, ExecMode::kRow,
                                    a.root_rows, a.root_rows, 0));
    const double sort_b = SubtreeCost(
        b.cost, cost_model_.OwnCost(PhysOp::kSort, ExecMode::kRow,
                                    b.root_rows, b.root_rows, 0));
    consider(JoinImpl::kMerge,
             SubtreeCost(sort_a, sort_b,
                         cost_model_.OwnCost(PhysOp::kMergeJoin,
                                             ExecMode::kRow, join_rows,
                                             a.root_rows, b.root_rows)),
             ExecMode::kRow);
    // Nested loops with b as a single-table parameterized inner.
    if (__builtin_popcountll(b_mask) == 1) {
      const std::unique_ptr<PlanNode> inner =
          BuildNljInner(table_of(b_col), b_col.column_id, config, a.rows);
      if (inner != nullptr &&
          consider(JoinImpl::kNlj,
                   SubtreeCost(a.cost, inner->stats.est_subtree_cost,
                               cost_model_.OwnCost(
                                   PhysOp::kNestedLoopJoin, ExecMode::kRow,
                                   join_rows, a.root_rows,
                                   inner->stats.est_rows)),
                   ExecMode::kRow)) {
        best->outer_rows = a.rows;
      }
    }
    return improved;
  };

  // Builds the winning join over its built inputs and checks that the
  // annotated tree costs exactly what was priced.
  auto build_join = [&](const JoinChoice* choice, std::unique_ptr<PlanNode> a,
                        std::unique_ptr<PlanNode> b) {
    auto node = std::make_unique<PlanNode>();
    node->join.left = choice->a_col;
    node->join.right = choice->b_col;
    node->stats.est_rows = choice->rows;
    node->mode = choice->mode;
    auto sort_on = [this](std::unique_ptr<PlanNode> input, ColumnRef col) {
      auto sort = std::make_unique<PlanNode>();
      sort->op = PhysOp::kSort;
      sort->sort_keys = {SortKey{col, true}};
      sort->output_columns = input->output_columns;
      sort->output_width_bytes = input->output_width_bytes;
      sort->stats.est_rows = input->stats.est_rows;
      sort->children.push_back(std::move(input));
      cost_model_.AnnotateNode(sort.get(), /*dop=*/1);
      return sort;
    };
    switch (choice->impl) {
      case JoinImpl::kHashAB:
        node->op = PhysOp::kHashJoin;
        node->children.push_back(std::move(a));
        node->children.push_back(std::move(b));
        break;
      case JoinImpl::kHashBA:
        node->op = PhysOp::kHashJoin;
        node->join.left = choice->b_col;
        node->join.right = choice->a_col;
        node->children.push_back(std::move(b));
        node->children.push_back(std::move(a));
        break;
      case JoinImpl::kMerge:
        node->op = PhysOp::kMergeJoin;
        node->children.push_back(sort_on(std::move(a), choice->a_col));
        node->children.push_back(sort_on(std::move(b), choice->b_col));
        break;
      case JoinImpl::kNlj: {
        node->op = PhysOp::kNestedLoopJoin;
        node->children.push_back(std::move(a));
        // The inner was priced and dropped; build it again for its outer.
        node->children.push_back(BuildNljInner(table_of(choice->b_col),
                                               choice->b_col.column_id, config,
                                               choice->outer_rows));
        break;
      }
    }
    node->output_columns = node->child(0)->output_columns;
    node->output_columns.insert(node->output_columns.end(),
                                node->child(1)->output_columns.begin(),
                                node->child(1)->output_columns.end());
    cost_model_.AnnotateNode(node.get(), /*dop=*/1);
    AIMAI_CHECK_MSG(Bits(node->stats.est_subtree_cost) == Bits(choice->cost),
                    "a built join must cost exactly what it was priced at");
    return node;
  };

  auto joined_rel = [](const JoinChoice& choice) {
    Rel r;
    r.rows = choice.rows;
    r.root_rows = choice.rows;
    r.cost = choice.cost;
    r.mode = choice.mode;
    return r;
  };
  auto base_rel = [&base_paths](size_t i) {
    Rel r;
    r.rows = base_paths[i].rows;
    r.plan = std::move(base_paths[i].plan);
    r.root_rows = r.plan->stats.est_rows;
    r.cost = r.plan->stats.est_subtree_cost;
    r.mode = r.plan->mode;
    return r;
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
    // Dynamic programming over connected subsets, one flat slot per subset
    // mask: its priced relation and the winning split's recipe. Only the
    // winners reachable from the full set are ever built.
    struct Slot {
      Rel rel;
      uint64_t a_mask = 0;
      JoinChoice choice;
      bool valid = false;
    };
    const uint64_t full = (1ULL << n) - 1;
    std::vector<Slot> dp(full + 1);
    for (size_t i = 0; i < n; ++i) {
      Slot& slot = dp[1ULL << i];
      slot.rel = base_rel(i);
      slot.valid = true;
    }
    for (uint64_t s = 3; s <= full; ++s) {
      if (__builtin_popcountll(s) < 2) continue;
      Slot& slot = dp[s];
      for (uint64_t a = (s - 1) & s; a != 0; a = (a - 1) & s) {
        const uint64_t b = s & ~a;
        if (b == 0) continue;
        if (!dp[a].valid || !dp[b].valid) continue;
        ColumnRef a_col, b_col;
        if (!connecting_cond(a, b, &a_col, &b_col)) continue;
        if (best_join(dp[a].rel, dp[b].rel, a_col, b_col, b, &slot.choice)) {
          slot.a_mask = a;
        }
      }
      if (slot.choice.valid) {
        slot.rel = joined_rel(slot.choice);
        slot.valid = true;
      }
    }
    AIMAI_CHECK_MSG(dp[full].valid, "join graph must be connected");
    // Each subset appears at most once in the winning tree, so every base
    // plan and every recipe is consumed exactly once.
    auto build = [&](auto&& self, uint64_t s) -> std::unique_ptr<PlanNode> {
      Slot& slot = dp[s];
      if (slot.rel.plan != nullptr) return std::move(slot.rel.plan);
      std::unique_ptr<PlanNode> a = self(self, slot.a_mask);
      std::unique_ptr<PlanNode> b;
      if (slot.choice.impl != JoinImpl::kNlj) b = self(self, s & ~slot.a_mask);
      return build_join(&slot.choice, std::move(a), std::move(b));
    };
    *out_rows = dp[full].rel.rows;
    return build(build, full);
  }

  // Greedy: repeatedly merge the pair with the cheapest combined plan. The
  // merged pair's inputs are consumed, so the winner is built right away.
  std::vector<std::pair<uint64_t, Rel>> rels;
  for (size_t i = 0; i < n; ++i) rels.emplace_back(1ULL << i, base_rel(i));
  while (rels.size() > 1) {
    int best_i = -1, best_j = -1;
    JoinChoice best;
    for (size_t i = 0; i < rels.size(); ++i) {
      for (size_t j = 0; j < rels.size(); ++j) {
        if (i == j) continue;
        ColumnRef a_col, b_col;
        if (!connecting_cond(rels[i].first, rels[j].first, &a_col, &b_col)) {
          continue;
        }
        if (best_join(rels[i].second, rels[j].second, a_col, b_col,
                      rels[j].first, &best)) {
          best_i = static_cast<int>(i);
          best_j = static_cast<int>(j);
        }
      }
    }
    AIMAI_CHECK_MSG(best.valid, "join graph must be connected");
    Rel merged = joined_rel(best);
    merged.plan = build_join(&best, std::move(rels[best_i].second.plan),
                             std::move(rels[best_j].second.plan));
    const uint64_t merged_mask = rels[best_i].first | rels[best_j].first;
    if (best_i > best_j) std::swap(best_i, best_j);
    rels.erase(rels.begin() + best_j);
    rels.erase(rels.begin() + best_i);
    rels.emplace_back(merged_mask, std::move(merged));
  }
  *out_rows = rels[0].second.rows;
  return std::move(rels[0].second.plan);
}

std::unique_ptr<PlanNode> PlanEnumerator::FinishPlan(
    const QuerySpec& q, std::unique_ptr<PlanNode> input, double input_rows) {
  std::unique_ptr<PlanNode> top = std::move(input);
  double rows = input_rows;

  if (q.HasAggregation()) {
    const double groups = card_.EstimateGroups(rows, q.group_by);
    double width = 8.0 * static_cast<double>(q.aggregates.size());
    width += RowWidthBytes(*db_, q.group_by);

    auto aggregate = [&](PhysOp op, double out_rows) {
      auto agg = std::make_unique<PlanNode>();
      agg->op = op;
      agg->group_by = q.group_by;
      agg->aggregates = q.aggregates;
      agg->output_width_bytes = width;
      agg->stats.est_rows = out_rows;
      return agg;
    };
    if (q.group_by.empty()) {
      // Scalar aggregate: stream aggregate without sorting.
      auto agg = aggregate(PhysOp::kStreamAggregate, 1);
      agg->children.push_back(std::move(top));
      cost_model_.AnnotateNode(agg.get(), /*dop=*/1);
      top = std::move(agg);
      rows = 1;
    } else {
      // Hash aggregate vs sort + stream aggregate: price both from the
      // input's cost and rows, then build the winner alone.
      const ExecMode hash_mode =
          top->mode == ExecMode::kBatch ? ExecMode::kBatch : ExecMode::kRow;
      const double input_cost = top->stats.est_subtree_cost;
      const double input_root_rows = top->stats.est_rows;
      const double hash_cost = SubtreeCost(
          input_cost, cost_model_.OwnCost(PhysOp::kHashAggregate, hash_mode,
                                          groups, input_root_rows, 0));
      // The sort's est_rows is the join estimate, which the stream
      // aggregate above it reads.
      const double sort_cost = SubtreeCost(
          input_cost, cost_model_.OwnCost(PhysOp::kSort, ExecMode::kRow, rows,
                                          input_root_rows, 0));
      const double stream_cost = SubtreeCost(
          sort_cost, cost_model_.OwnCost(PhysOp::kStreamAggregate,
                                         ExecMode::kRow, groups, rows, 0));

      std::unique_ptr<PlanNode> agg;
      if (hash_cost <= stream_cost) {
        agg = aggregate(PhysOp::kHashAggregate, groups);
        agg->mode = hash_mode;
        agg->children.push_back(std::move(top));
      } else {
        auto sort = std::make_unique<PlanNode>();
        sort->op = PhysOp::kSort;
        for (const ColumnRef& c : q.group_by) {
          sort->sort_keys.push_back(SortKey{c, true});
        }
        sort->output_columns = top->output_columns;
        sort->output_width_bytes = top->output_width_bytes;
        sort->stats.est_rows = rows;
        sort->children.push_back(std::move(top));
        cost_model_.AnnotateNode(sort.get(), /*dop=*/1);
        agg = aggregate(PhysOp::kStreamAggregate, groups);
        agg->children.push_back(std::move(sort));
      }
      cost_model_.AnnotateNode(agg.get(), /*dop=*/1);
      AIMAI_CHECK_MSG(Bits(agg->stats.est_subtree_cost) ==
                          Bits(std::min(hash_cost, stream_cost)),
                      "a built aggregate must cost exactly what it was "
                      "priced at");
      top = std::move(agg);
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
    cost_model_.AnnotateNode(sort.get(), /*dop=*/1);
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
    cost_model_.AnnotateNode(topn.get(), /*dop=*/1);
    top = std::move(topn);
  }
  return top;
}

std::unique_ptr<PhysicalPlan> PlanEnumerator::Optimize(
    const QuerySpec& q, const Configuration& config) {
  AIMAI_CHECK(!q.tables.empty());
  std::vector<TableInputs> tables;
  std::vector<AccessPath> paths;
  tables.reserve(q.tables.size());
  paths.reserve(q.tables.size());
  for (int t : q.tables) {
    tables.push_back(GatherTableInputs(q, t));
    paths.push_back(BestAccessPath(tables.back(), config));
  }
  double join_rows = 0;
  std::unique_ptr<PlanNode> tree =
      EnumerateJoins(q, config, tables, std::move(paths), &join_rows);
  tree = FinishPlan(q, std::move(tree), join_rows);

  // Every node was annotated as it was built (serial, dop 1).
  auto plan = std::make_unique<PhysicalPlan>();
  plan->root = std::move(tree);
  plan->degree_of_parallelism = 1;
  plan->est_total_cost = plan->root->stats.est_subtree_cost;

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

}  // namespace aimai

#include "exec/vectorized_executor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "obs/obs.h"

namespace aimai {

namespace {

/// Per-thread batch scratch. Chunk capacity is retained across queries, so
/// after warm-up the chunk loops — and the per-query setup — never touch
/// the system allocator. Thread-local because tuning workers execute plans
/// concurrently, each on its own Executor invocation.
thread_local ExecArena t_arena;

bool IsAccessOp(PhysOp op) {
  return op == PhysOp::kTableScan || op == PhysOp::kColumnstoreScan ||
         op == PhysOp::kIndexScan || op == PhysOp::kIndexSeek;
}

// Same semantics as the row engine's stat recording (executor.cc).
void Record(PlanNode* node, size_t out_rows) {
  node->stats.actual_rows += static_cast<double>(out_rows);
  node->stats.actual_executions += 1;
  node->stats.executed = true;
}

// `rebinds` executions of a nested-loop inner node producing `rows` in
// total. Counts are integers below 2^53, so one addition of the total is
// bit-identical to the row engine's per-rebind additions.
void RecordRebinds(PlanNode* node, size_t rebinds, size_t rows) {
  node->stats.actual_rows += static_cast<double>(rows);
  node->stats.actual_executions += static_cast<double>(rebinds);
  node->stats.executed = true;
}

/// A conjunction term resolved to a raw column view + flattened bounds.
/// Built once per node; the chunk loop runs pure pointer arithmetic.
struct ResolvedPred {
  ColumnView view;
  BoundsSpec bounds;
};

std::vector<ResolvedPred> ResolvePreds(const Database& db, const Table& table,
                                       const std::vector<Predicate>& preds) {
  std::vector<ResolvedPred> out;
  const auto col_bounds = ResolveConjunction(db, preds);
  out.reserve(col_bounds.size());
  for (const auto& [col, b] : col_bounds) {
    out.push_back({ColumnView::Of(table.column(static_cast<size_t>(col))),
                   BoundsSpec::From(b)});
  }
  return out;
}

ColumnView ViewOf(const Database& db, ColumnRef col) {
  return ColumnView::Of(
      db.table(col.table_id).column(static_cast<size_t>(col.column_id)));
}

size_t SlotIn(const std::vector<int>& tables, int table_id) {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table_id) return i;
  }
  AIMAI_CHECK_MSG(false, "column's table not in rowset");
  return 0;
}

/// Hash of a key of `n` doubles, consistent with component-wise `==`:
/// -0.0 hashes as 0.0. Every component goes through the murmur3
/// finalizer, so keys differing only in high bits (small integers stored
/// as doubles) still spread over the low bits open addressing masks.
uint64_t HashKey(const double* key, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t j = 0; j < n; ++j) {
    const double d = key[j] == 0 ? 0.0 : key[j];
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    h ^= bits;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
  }
  return h;
}

/// Open-addressing map from keys of `width` doubles (join keys, group
/// keys) to dense ids in first-seen order. Keys compare component-wise
/// with `==` (JoinKeysEqual), so -0.0 and 0.0 share an id. A key holding
/// NaN equals nothing: Intern gives it a fresh id every time and Find
/// never returns one.
class KeyIdTable {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  KeyIdTable(size_t width, size_t expected) : width_(width) {
    size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    slots_.assign(cap, kNone);
  }

  uint32_t Find(const double* key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t s = HashKey(key, width_) & mask;; s = (s + 1) & mask) {
      const uint32_t id = slots_[s];
      if (id == kNone || Equal(this->key(id), key)) return id;
    }
  }

  /// Id of `key`, assigning the next id when it is new.
  uint32_t Intern(const double* key) {
    const auto id = static_cast<uint32_t>(size());
    if (!Equal(key, key)) {  // Holds NaN.
      keys_.insert(keys_.end(), key, key + width_);
      return id;
    }
    const size_t mask = slots_.size() - 1;
    size_t s = HashKey(key, width_) & mask;
    for (; slots_[s] != kNone; s = (s + 1) & mask) {
      if (Equal(this->key(slots_[s]), key)) return slots_[s];
    }
    keys_.insert(keys_.end(), key, key + width_);
    slots_[s] = id;
    if (2 * size() > slots_.size()) Grow();
    return id;
  }

  size_t size() const { return keys_.size() / width_; }
  const double* key(uint32_t id) const { return keys_.data() + id * width_; }

 private:
  bool Equal(const double* a, const double* b) const {
    for (size_t j = 0; j < width_; ++j) {
      if (!JoinKeysEqual(a[j], b[j])) return false;
    }
    return true;
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, kNone);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size(); ++id) {
      if (!Equal(key(id), key(id))) continue;
      size_t s = HashKey(key(id), width_) & mask;
      while (slots_[s] != kNone) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  const size_t width_;
  std::vector<uint32_t> slots_;
  std::vector<double> keys_;  // Key of id i at [i * width_, ...).
};

/// Groups item ids by key id: `begin[g]..begin[g + 1]` indexes `items`,
/// which lists every item of key g in ascending item order (a stable
/// counting sort). Items with key kNone are left out.
struct KeyRuns {
  std::vector<uint32_t> begin;
  std::vector<uint32_t> items;

  KeyRuns(const std::vector<uint32_t>& key_of_item, size_t num_keys)
      : begin(num_keys + 1, 0) {
    for (uint32_t g : key_of_item) {
      if (g != KeyIdTable::kNone) ++begin[g + 1];
    }
    for (size_t g = 0; g < num_keys; ++g) begin[g + 1] += begin[g];
    items.resize(begin[num_keys]);
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t i = 0; i < key_of_item.size(); ++i) {
      const uint32_t g = key_of_item[i];
      if (g != KeyIdTable::kNone) items[cursor[g]++] = static_cast<uint32_t>(i);
    }
  }

  size_t count(uint32_t g) const { return begin[g + 1] - begin[g]; }
};

/// Calls `f(first, keys, m)` over `rs` in chunks of kBatchRows tuples,
/// with `keys[i]` the numeric value of `col` in tuple `first + i`.
template <typename F>
void ForEachKeyChunk(const Database& db, const RowSet& rs, ColumnRef col,
                     F&& f) {
  const size_t slot = SlotIn(rs.tables, col.table_id);
  const ColumnView view = ViewOf(db, col);
  uint32_t* rid = t_arena.Alloc<uint32_t>(kBatchRows);
  double* keys = t_arena.Alloc<double>(kBatchRows);
  const size_t n = rs.size();
  for (size_t first = 0; first < n; first += kBatchRows) {
    const size_t m = std::min(kBatchRows, n - first);
    GatherSlot(rs.ids.data(), rs.width(), slot, first, m, rid);
    GatherNumeric(view, rid, m, keys);
    f(first, static_cast<const double*>(keys), m);
  }
}

std::vector<double> GatherKeys(const Database& db, const RowSet& rs,
                               ColumnRef col) {
  std::vector<double> out(rs.size());
  ForEachKeyChunk(db, rs, col, [&out](size_t first, const double* k, size_t m) {
    std::copy(k, k + m, out.begin() + static_cast<std::ptrdiff_t>(first));
  });
  return out;
}

/// Streaming grouped aggregation over selection-vector chunks. Groups are
/// registered in first-seen order and every accumulator advances
/// sequentially in global row order (carried across chunks), matching the
/// row engine's AggregateRows bit-for-bit: same group order, same FP
/// accumulation sequence per group, same finalization formulas. Input
/// columns may come from any table of the row set: a chunk arrives as
/// one row-id array per slot.
///
/// Group identity is the row engine's: component-wise `==` on the key
/// (so -0.0 joins 0.0's group and a key holding NaN always opens a new
/// group), with each group keeping its first-seen key. Keys resolve
/// through a flat open-addressing table.
class GroupedAggregator {
 public:
  GroupedAggregator(const Database& db, const std::vector<int>& tables,
                    const std::vector<ColumnRef>& group_by,
                    const std::vector<AggItem>& aggs)
      : ng_(group_by.size()), na_(aggs.size()), groups_(ng_, 64) {
    group_cols_.reserve(ng_);
    for (const ColumnRef& c : group_by) {
      group_cols_.push_back(ViewOf(db, c));
      group_slots_.push_back(SlotIn(tables, c.table_id));
    }
    funcs_.reserve(na_);
    agg_cols_.resize(na_);
    agg_slots_.assign(na_, 0);
    for (size_t a = 0; a < na_; ++a) {
      funcs_.push_back(aggs[a].func);
      if (aggs[a].func != AggFunc::kCount) {
        agg_cols_[a] = ViewOf(db, aggs[a].col);
        agg_slots_[a] = SlotIn(tables, aggs[a].col.table_id);
      }
    }
    key_scratch_.resize(ng_);
    prev_key_.resize(ng_);
  }

  /// Consumes `n` tuples: `slot_ids[s][i]` is tuple i's row id in slot s.
  void Consume(const uint32_t* const* slot_ids, size_t n) {
    if (ng_ == 0) {
      ConsumeSingleGroup(slot_ids, n);
      return;
    }
    // Pass 1: resolve every row's group index into a chunk-local array
    // (registering new groups in first-seen order, like the row path).
    // Pass 2: one typed scatter-accumulate sweep per aggregate column.
    // Each (group, aggregate) slot still receives its updates for rows in
    // input order, so the FP sequence is exactly the per-row loop's.
    grp_.resize(n);
    gkeys_.resize(n * ng_);
    for (size_t j = 0; j < ng_; ++j) {
      GatherNumeric(group_cols_[j], slot_ids[group_slots_[j]], n,
                    gkeys_.data() + j * n);
    }
    ResolveGroups(n);
    for (size_t a = 0; a < na_; ++a) {
      const AggFunc f = funcs_[a];
      if (f == AggFunc::kCount) continue;
      const bool sum = f == AggFunc::kSum || f == AggFunc::kAvg;
      AccumulateNumericGrouped(
          agg_cols_[a], slot_ids[agg_slots_[a]], grp_.data(), n, na_, a,
          sum ? sums_.data() : nullptr,
          f == AggFunc::kMin ? mins_.data() : nullptr,
          f == AggFunc::kMax ? maxs_.data() : nullptr);
    }
  }

  AggResult Finalize() {
    AggResult out;
    const size_t n_groups = counts_.size();
    out.group_keys.reserve(n_groups);
    out.agg_values.reserve(n_groups);
    for (size_t g = 0; g < n_groups; ++g) {
      const double* key = groups_.key(static_cast<uint32_t>(g));
      out.group_keys.emplace_back(key, key + ng_);
      std::vector<double> vals(na_, 0.0);
      const size_t base = g * na_;
      for (size_t a = 0; a < na_; ++a) {
        switch (funcs_[a]) {
          case AggFunc::kCount:
            vals[a] = counts_[g];
            break;
          case AggFunc::kSum:
            vals[a] = sums_[base + a];
            break;
          case AggFunc::kAvg:
            vals[a] = counts_[g] > 0 ? sums_[base + a] / counts_[g] : 0;
            break;
          case AggFunc::kMin:
            vals[a] = mins_[base + a];
            break;
          case AggFunc::kMax:
            vals[a] = maxs_[base + a];
            break;
        }
      }
      out.agg_values.push_back(std::move(vals));
    }
    return out;
  }

 private:
  void ResolveGroups(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      bool same_as_prev = has_prev_;
      for (size_t j = 0; j < ng_; ++j) {
        key_scratch_[j] = gkeys_[j * n + i];
        same_as_prev = same_as_prev && key_scratch_[j] == prev_key_[j];
      }
      uint32_t g;
      if (same_as_prev) {
        g = prev_idx_;
      } else {
        g = Group(key_scratch_.data());
        prev_key_ = key_scratch_;
        prev_idx_ = g;
        has_prev_ = true;
      }
      grp_[i] = g;
      counts_[g] += 1;
    }
  }

  /// Group of `key`, registering a new group when it has none.
  uint32_t Group(const double* key) {
    const uint32_t g = groups_.Intern(key);
    if (g == counts_.size()) AppendGroupSlots();
    return g;
  }

  void AppendGroupSlots() {
    counts_.push_back(0);
    sums_.resize(sums_.size() + na_, 0.0);
    mins_.resize(mins_.size() + na_, std::numeric_limits<double>::infinity());
    maxs_.resize(maxs_.size() + na_,
                 -std::numeric_limits<double>::infinity());
  }

  // COUNT(*)-style single group: fused per-column sweeps. Each aggregate
  // column still accumulates sequentially in row order, so sums stay
  // FP-identical; counts are exact integers up to 2^53 either way.
  void ConsumeSingleGroup(const uint32_t* const* slot_ids, size_t n) {
    if (n == 0) return;
    if (counts_.empty()) AppendGroupSlots();
    counts_[0] += static_cast<double>(n);
    for (size_t a = 0; a < na_; ++a) {
      const AggFunc f = funcs_[a];
      if (f == AggFunc::kCount) continue;
      const bool sum = f == AggFunc::kSum || f == AggFunc::kAvg;
      AccumulateNumeric(agg_cols_[a], slot_ids[agg_slots_[a]], n,
                        sum ? &sums_[a] : nullptr,
                        f == AggFunc::kMin ? &mins_[a] : nullptr,
                        f == AggFunc::kMax ? &maxs_[a] : nullptr);
    }
  }

  const size_t ng_;
  const size_t na_;
  std::vector<ColumnView> group_cols_;
  std::vector<size_t> group_slots_;
  std::vector<ColumnView> agg_cols_;
  std::vector<size_t> agg_slots_;
  std::vector<AggFunc> funcs_;

  // Group state, SoA, in first-seen order (group g is key id g of
  // groups_). sums_/mins_/maxs_ are group-major: slot [g * na_ + a].
  KeyIdTable groups_;
  std::vector<double> counts_;
  std::vector<double> sums_;
  std::vector<double> mins_;
  std::vector<double> maxs_;

  std::vector<double> key_scratch_;
  std::vector<double> gkeys_;   // Chunk group-key columns, column-major.
  std::vector<uint32_t> grp_;   // Chunk-local group index per row.
  std::vector<double> prev_key_;
  uint32_t prev_idx_ = 0;
  bool has_prev_ = false;
};

/// True iff `node` heads a fusable single-table segment: KeyLookup /
/// Filter nodes down to an access leaf.
bool IsSegment(const PlanNode* node) {
  while (node->op == PhysOp::kKeyLookup || node->op == PhysOp::kFilter) {
    node = node->child(0);
  }
  return IsAccessOp(node->op);
}

/// Runs one plan (recursively) on the batch engine.
class BatchRunner {
 public:
  BatchRunner(const Database* db, IndexManager* indexes)
      : db_(*db), indexes_(indexes) {}

  ExecResult Run(PlanNode* node) {
    ExecResult result;
    if (IsSegment(node)) {
      result.rows = RunSegment(node, nullptr);
      return result;  // RunSegment records the segment's nodes.
    }
    switch (node->op) {
      case PhysOp::kKeyLookup: {
        result.rows = RunRows(node->child(0));
        break;  // Lookup fetches columns; row composition is unchanged.
      }
      case PhysOp::kFilter: {
        result.rows = Filter(RunRows(node->child(0)), node->residual_preds);
        break;
      }
      case PhysOp::kHashJoin: {
        const RowSet build = RunRows(node->child(0));
        const RowSet probe = RunRows(node->child(1));
        result.rows = HashJoin(build, node->join.left, probe, node->join.right);
        break;
      }
      case PhysOp::kMergeJoin: {
        const RowSet left = RunRows(node->child(0));
        const RowSet right = RunRows(node->child(1));
        result.rows = MergeJoin(left, node->join.left, right, node->join.right);
        break;
      }
      case PhysOp::kNestedLoopJoin: {
        const RowSet outer = RunRows(node->child(0));
        result.rows = NestedLoopJoin(node, outer);
        break;
      }
      case PhysOp::kSort: {
        result = Run(node->child(0));
        if (result.is_agg) {
          SortAggResult(&result.agg);
        } else {
          Sort(&result.rows, node->sort_keys);
        }
        break;
      }
      case PhysOp::kHashAggregate:
      case PhysOp::kStreamAggregate: {
        PlanNode* child = node->child(0);
        if (IsSegment(child)) {
          // Fused: the segment's rows never materialize.
          GroupedAggregator agg(db_, {SegmentTable(child)}, node->group_by,
                                node->aggregates);
          RunSegment(child, &agg);
          result.agg = agg.Finalize();
        } else {
          const RowSet rows = RunRows(child);
          GroupedAggregator agg(db_, rows.tables, node->group_by,
                                node->aggregates);
          Aggregate(rows, &agg);
          result.agg = agg.Finalize();
        }
        result.is_agg = true;
        break;
      }
      case PhysOp::kTop: {
        result = Run(node->child(0));
        const size_t n = static_cast<size_t>(node->top_n);
        if (result.is_agg) {
          if (result.agg.size() > n) {
            result.agg.group_keys.resize(n);
            result.agg.agg_values.resize(n);
          }
        } else {
          result.rows.Truncate(n);
        }
        break;
      }
      default:
        AIMAI_CHECK_MSG(false, "unsupported vectorized operator");
    }
    Record(node, result.size());
    return result;
  }

 private:
  RowSet RunRows(PlanNode* node) {
    ExecResult r = Run(node);
    AIMAI_CHECK(!r.is_agg);
    return std::move(r.rows);
  }

  /// Table of a segment's access leaf.
  static int SegmentTable(const PlanNode* node) {
    while (!IsAccessOp(node->op)) node = node->child(0);
    return node->table_id;
  }

  /// Runs the fused single-table segment headed by `top`, recording stats
  /// on each of its nodes. Rows either feed `agg` (returning an empty row
  /// set) or come back materialized, in the row engine's order.
  RowSet RunSegment(PlanNode* top, GroupedAggregator* agg);

  /// Feeds every tuple of `rows` to `agg`, in order.
  void Aggregate(const RowSet& rows, GroupedAggregator* agg);

  RowSet Filter(const RowSet& in, const std::vector<Predicate>& preds);
  RowSet HashJoin(const RowSet& build, ColumnRef build_col,
                  const RowSet& probe, ColumnRef probe_col);
  RowSet MergeJoin(const RowSet& left, ColumnRef left_col,
                   const RowSet& right, ColumnRef right_col);
  RowSet NestedLoopJoin(PlanNode* node, const RowSet& outer);
  void Sort(RowSet* rs, const std::vector<SortKey>& keys);

  const Database& db_;
  IndexManager* indexes_;
};

RowSet BatchRunner::RunSegment(PlanNode* top, GroupedAggregator* agg) {
  // steps: the segment's KeyLookup / Filter nodes, bottom-up.
  struct SegmentStep {
    PlanNode* node;
    std::vector<ResolvedPred> preds;  // Empty for KeyLookup.
    size_t out_rows = 0;
  };
  std::vector<PlanNode*> chain;
  PlanNode* leaf = top;
  while (!IsAccessOp(leaf->op)) {
    chain.push_back(leaf);
    leaf = leaf->child(0);
  }
  const Table& table = db_.table(leaf->table_id);
  std::vector<SegmentStep> steps;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    SegmentStep st;
    st.node = *it;
    if (st.node->op == PhysOp::kFilter) {
      AIMAI_CHECK(!st.node->residual_preds.empty());
      st.preds = ResolvePreds(db_, table, st.node->residual_preds);
    }
    steps.push_back(std::move(st));
  }
  const std::vector<ResolvedPred> leaf_preds =
      ResolvePreds(db_, table, leaf->residual_preds);

  // Candidate rows, in exactly the row engine's iteration order.
  std::vector<uint32_t> seek_hits;
  const uint32_t* sparse = nullptr;  // Index scan / seek candidates.
  bool dense = false;
  size_t total = 0;
  switch (leaf->op) {
    case PhysOp::kTableScan:
    case PhysOp::kColumnstoreScan:
      dense = true;
      total = table.num_rows();
      leaf->stats.actual_access_rows += static_cast<double>(table.num_rows());
      break;
    case PhysOp::kIndexScan: {
      const BTreeIndex* idx = indexes_->GetOrBuild(leaf->index);
      sparse = idx->ScanAll().data();
      total = idx->ScanAll().size();
      leaf->stats.actual_access_rows += static_cast<double>(table.num_rows());
      break;
    }
    case PhysOp::kIndexSeek: {
      const BTreeIndex* idx = indexes_->GetOrBuild(leaf->index);
      seek_hits = idx->SeekRange(BuildSeekRange(db_, *leaf));
      sparse = seek_hits.data();
      total = seek_hits.size();
      leaf->stats.actual_access_rows += static_cast<double>(total);
      break;
    }
    default:
      AIMAI_CHECK_MSG(false, "not an access operator");
  }

  uint32_t* sel = t_arena.Alloc<uint32_t>(kBatchRows);
  RowSet out;
  out.tables = {leaf->table_id};
  if (agg == nullptr) {
    const double est = top->stats.est_rows;
    out.ids.reserve(std::min(total, static_cast<size_t>(std::max(0.0, est))));
  }

  size_t leaf_out = 0;
  for (size_t base = 0; base < total; base += kBatchRows) {
    const size_t m = std::min(kBatchRows, total - base);
    const uint32_t* cur;
    size_t cnt;
    if (dense) {
      if (!leaf_preds.empty()) {
        // First predicate filters straight off the dense row range — no
        // iota materialization, no gather indirection.
        cnt = FilterDense(leaf_preds[0].view, static_cast<uint32_t>(base),
                          static_cast<uint32_t>(base + m),
                          leaf_preds[0].bounds, sel);
        for (size_t p = 1; p < leaf_preds.size(); ++p) {
          cnt = FilterGather(leaf_preds[p].view, sel, cnt,
                             leaf_preds[p].bounds, sel);
        }
      } else {
        Iota(sel, static_cast<uint32_t>(base), m);
        cnt = m;
      }
      cur = sel;
    } else {
      cur = sparse + base;
      cnt = m;
      for (const ResolvedPred& p : leaf_preds) {
        cnt = FilterGather(p.view, cur, cnt, p.bounds, sel);
        cur = sel;
      }
    }
    leaf_out += cnt;

    for (SegmentStep& st : steps) {
      for (const ResolvedPred& p : st.preds) {
        cnt = FilterGather(p.view, cur, cnt, p.bounds, sel);
        cur = sel;
      }
      st.out_rows += cnt;
    }

    if (agg != nullptr) {
      agg->Consume(&cur, cnt);
    } else if (cnt > 0) {
      out.ids.insert(out.ids.end(), cur, cur + cnt);
    }
  }

  Record(leaf, leaf_out);
  for (SegmentStep& st : steps) Record(st.node, st.out_rows);
  return out;
}

void BatchRunner::Aggregate(const RowSet& rows, GroupedAggregator* agg) {
  const size_t w = rows.width();
  const size_t n = rows.size();
  std::vector<uint32_t*> cols(w);
  for (size_t s = 0; s < w; ++s) cols[s] = t_arena.Alloc<uint32_t>(kBatchRows);
  for (size_t first = 0; first < n; first += kBatchRows) {
    const size_t m = std::min(kBatchRows, n - first);
    for (size_t s = 0; s < w; ++s) {
      GatherSlot(rows.ids.data(), w, s, first, m, cols[s]);
    }
    agg->Consume(cols.data(), m);
  }
}

RowSet BatchRunner::Filter(const RowSet& in,
                           const std::vector<Predicate>& preds) {
  AIMAI_CHECK(!preds.empty());
  const int table_id = preds[0].table_id;
  const size_t slot = SlotIn(in.tables, table_id);
  const auto resolved = ResolvePreds(db_, db_.table(table_id), preds);
  RowSet out;
  out.tables = in.tables;
  uint32_t* rid = t_arena.Alloc<uint32_t>(kBatchRows);
  uint32_t* pos = t_arena.Alloc<uint32_t>(kBatchRows);
  const size_t n = in.size();
  for (size_t first = 0; first < n; first += kBatchRows) {
    const size_t m = std::min(kBatchRows, n - first);
    GatherSlot(in.ids.data(), in.width(), slot, first, m, rid);
    Iota(pos, 0, m);
    size_t cnt = m;
    for (const ResolvedPred& p : resolved) {
      // Compacts chunk positions in place, like FilterGather does ids.
      size_t k = 0;
      for (size_t i = 0; i < cnt; ++i) {
        const uint32_t q = pos[i];
        pos[k] = q;
        k += static_cast<size_t>(p.bounds.Pass(p.view.NumericAt(rid[q])));
      }
      cnt = k;
    }
    for (size_t i = 0; i < cnt; ++i) out.Append(in.Tuple(first + pos[i]));
  }
  return out;
}

RowSet BatchRunner::HashJoin(const RowSet& build, ColumnRef build_col,
                             const RowSet& probe, ColumnRef probe_col) {
  RowSet out;
  out.tables = probe.tables;
  out.tables.insert(out.tables.end(), build.tables.begin(),
                    build.tables.end());
  if (build.size() == 0 || probe.size() == 0) return out;

  // Build: a key id per build tuple (NaN joins nothing), then per-key runs
  // of build tuples in input order.
  KeyIdTable table(1, build.size());
  std::vector<uint32_t> build_key(build.size());
  ForEachKeyChunk(db_, build, build_col,
                  [&](size_t first, const double* keys, size_t m) {
                    for (size_t i = 0; i < m; ++i) {
                      build_key[first + i] = keys[i] != keys[i]
                                                 ? KeyIdTable::kNone
                                                 : table.Intern(&keys[i]);
                    }
                  });
  const KeyRuns runs(build_key, table.size());

  // Probe: resolve each probe tuple's run and size the output exactly.
  std::vector<uint32_t> probe_key(probe.size());
  size_t total = 0;
  ForEachKeyChunk(db_, probe, probe_col,
                  [&](size_t first, const double* keys, size_t m) {
                    for (size_t i = 0; i < m; ++i) {
                      const uint32_t g = keys[i] != keys[i]
                                             ? KeyIdTable::kNone
                                             : table.Find(&keys[i]);
                      probe_key[first + i] = g;
                      if (g != KeyIdTable::kNone) total += runs.count(g);
                    }
                  });

  // Emit in probe order; each probe tuple's matches in build order.
  const size_t wp = probe.width();
  const size_t wb = build.width();
  out.ids.resize(total * (wp + wb));
  uint32_t* dst = out.ids.data();
  for (size_t t = 0; t < probe.size(); ++t) {
    const uint32_t g = probe_key[t];
    if (g == KeyIdTable::kNone) continue;
    const uint32_t* pt = probe.Tuple(t);
    for (uint32_t r = runs.begin[g]; r < runs.begin[g + 1]; ++r) {
      dst = std::copy(pt, pt + wp, dst);
      const uint32_t* bt = build.Tuple(runs.items[r]);
      dst = std::copy(bt, bt + wb, dst);
    }
  }
  return out;
}

RowSet BatchRunner::MergeJoin(const RowSet& left, ColumnRef left_col,
                              const RowSet& right, ColumnRef right_col) {
  RowSet out;
  out.tables = left.tables;
  out.tables.insert(out.tables.end(), right.tables.begin(),
                    right.tables.end());
  const std::vector<double> lk = GatherKeys(db_, left, left_col);
  const std::vector<double> rk = GatherKeys(db_, right, right_col);
  const size_t wl = left.width();
  const size_t wr = right.width();

  // The row engine's merge, over gathered keys: a first pass sizes the
  // output, the second emits each equal-key block's cross product.
  auto walk = [&](uint32_t* dst) -> size_t {
    size_t emitted = 0;
    size_t i = 0, j = 0;
    const size_t n = lk.size(), m = rk.size();
    while (i < n && j < m) {
      const double lv = lk[i];
      const double rv = rk[j];
      if (lv != lv || rv != rv) break;  // NaN sorts last, matches nothing.
      if (lv < rv) {
        ++i;
      } else if (lv > rv) {
        ++j;
      } else {
        size_t i_end = i;
        while (i_end < n && lk[i_end] == lv) ++i_end;
        size_t j_end = j;
        while (j_end < m && rk[j_end] == rv) ++j_end;
        emitted += (i_end - i) * (j_end - j);
        if (dst != nullptr) {
          for (size_t a = i; a < i_end; ++a) {
            for (size_t b = j; b < j_end; ++b) {
              dst = std::copy(left.Tuple(a), left.Tuple(a) + wl, dst);
              dst = std::copy(right.Tuple(b), right.Tuple(b) + wr, dst);
            }
          }
        }
        i = i_end;
        j = j_end;
      }
    }
    return emitted;
  };
  out.ids.resize(walk(nullptr) * (wl + wr));
  walk(out.ids.data());
  return out;
}

RowSet BatchRunner::NestedLoopJoin(PlanNode* node, const RowSet& outer) {
  // The inner side: a chain of KeyLookup / Filter nodes over one access
  // leaf, which the row engine re-executes per outer tuple.
  std::vector<PlanNode*> chain;  // Above the leaf, bottom-up.
  PlanNode* leaf = node->child(1);
  while (!leaf->children.empty()) {
    chain.push_back(leaf);
    leaf = leaf->child(0);
  }
  std::reverse(chain.begin(), chain.end());

  RowSet out;
  out.tables = outer.tables;
  out.tables.push_back(leaf->table_id);
  const size_t n_outer = outer.size();
  if (n_outer == 0) return out;  // The inner side never runs.

  const Table& table = db_.table(leaf->table_id);
  const int join_col = node->join.right.column_id;
  const bool scan = leaf->op == PhysOp::kTableScan;
  const std::vector<ResolvedPred> leaf_preds =
      ResolvePreds(db_, table, leaf->residual_preds);
  std::vector<std::vector<ResolvedPred>> chain_preds;
  for (PlanNode* c : chain) {
    chain_preds.push_back(c->op == PhysOp::kFilter
                              ? ResolvePreds(db_, table, c->residual_preds)
                              : std::vector<ResolvedPred>{});
  }
  const size_t levels = chain.size() + 1;  // Leaf, then the chain.

  // Every outer tuple rebinds the inner side with its join value; each
  // distinct value is resolved once (ids in first-seen order) and its
  // result replayed for repeats. A NaN value equals no inner key.
  KeyIdTable values(1, std::min<size_t>(n_outer, 4096));
  std::vector<uint32_t> value_of(n_outer);
  ForEachKeyChunk(db_, outer, node->join.left,
                  [&](size_t first, const double* keys, size_t m) {
                    for (size_t i = 0; i < m; ++i) {
                      value_of[first + i] = keys[i] != keys[i]
                                                ? KeyIdTable::kNone
                                                : values.Intern(&keys[i]);
                    }
                  });
  const size_t distinct = values.size();

  // Candidate inner rows of value v: cand[begin[v], end[v]). An index
  // seeks every value in one ascending sweep; an inner table scan takes
  // the value's rows from a hash of the inner join column, in row order.
  std::vector<uint32_t> cand;
  std::vector<size_t> begin(distinct), end(distinct);
  if (scan) {
    const ColumnView jc =
        ColumnView::Of(table.column(static_cast<size_t>(join_col)));
    KeyIdTable inner_keys(1, table.num_rows());
    std::vector<uint32_t> key_of_row(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const double v = jc.NumericAt(static_cast<uint32_t>(r));
      key_of_row[r] = v != v ? KeyIdTable::kNone : inner_keys.Intern(&v);
    }
    const KeyRuns runs(key_of_row, inner_keys.size());
    for (uint32_t v = 0; v < distinct; ++v) {
      begin[v] = cand.size();
      const uint32_t g = inner_keys.Find(values.key(v));
      if (g != KeyIdTable::kNone) {
        cand.insert(cand.end(), runs.items.begin() + runs.begin[g],
                    runs.items.begin() + runs.begin[g + 1]);
      }
      end[v] = cand.size();
    }
  } else {
    AIMAI_CHECK_MSG(!leaf->index.key_columns.empty() &&
                        leaf->index.key_columns[0] == join_col,
                    "inner seek index must lead with the join column");
    const BTreeIndex* idx = indexes_->GetOrBuild(leaf->index);
    std::vector<uint32_t> order(distinct);
    for (uint32_t v = 0; v < distinct; ++v) order[v] = v;
    std::sort(order.begin(), order.end(), [&values](uint32_t a, uint32_t b) {
      return *values.key(a) < *values.key(b);
    });
    std::vector<double> sorted(distinct);
    for (size_t i = 0; i < distinct; ++i) sorted[i] = *values.key(order[i]);
    std::vector<size_t> run_begin;
    idx->SeekPointsSorted(sorted.data(), distinct, &cand, &run_begin);
    for (size_t i = 0; i < distinct; ++i) {
      begin[order[i]] = run_begin[i];
      end[order[i]] = run_begin[i + 1];
    }
  }

  // Each value's rebind: each inner node's output count, the last being
  // the inner rows it joins (filtered in place, so a prefix of its
  // candidate run). Its access examined the whole table (scan) or its
  // candidate run (seek).
  std::vector<size_t> level_rows(distinct * levels);
  auto joined = [&level_rows, levels](uint32_t v) {
    return level_rows[v * levels + levels - 1];
  };
  for (size_t v = 0; v < distinct; ++v) {
    uint32_t* ids = cand.data() + begin[v];
    size_t cnt = end[v] - begin[v];
    for (const ResolvedPred& p : leaf_preds) {
      cnt = FilterGather(p.view, ids, cnt, p.bounds, ids);
    }
    level_rows[v * levels] = cnt;
    for (size_t l = 0; l < chain_preds.size(); ++l) {
      for (const ResolvedPred& p : chain_preds[l]) {
        cnt = FilterGather(p.view, ids, cnt, p.bounds, ids);
      }
      level_rows[v * levels + l + 1] = cnt;
    }
  }

  // Totals over all rebinds (a NaN rebind joins nothing; its scan still
  // examines the whole table), then the output in outer order.
  size_t access_total = 0;
  size_t out_total = 0;
  std::vector<size_t> level_total(levels, 0);
  for (uint32_t v : value_of) {
    if (v == KeyIdTable::kNone) {
      access_total += scan ? table.num_rows() : 0;
      continue;
    }
    access_total += scan ? table.num_rows() : end[v] - begin[v];
    out_total += joined(v);
    for (size_t l = 0; l < levels; ++l) {
      level_total[l] += level_rows[v * levels + l];
    }
  }
  const size_t wo = outer.width();
  out.ids.resize(out_total * (wo + 1));
  uint32_t* dst = out.ids.data();
  for (size_t t = 0; t < n_outer; ++t) {
    const uint32_t v = value_of[t];
    if (v == KeyIdTable::kNone) continue;
    const uint32_t* ot = outer.Tuple(t);
    for (size_t k = 0; k < joined(v); ++k) {
      dst = std::copy(ot, ot + wo, dst);
      *dst++ = cand[begin[v] + k];
    }
  }

  leaf->stats.actual_access_rows += static_cast<double>(access_total);
  RecordRebinds(leaf, n_outer, level_total[0]);
  for (size_t l = 0; l < chain.size(); ++l) {
    RecordRebinds(chain[l], n_outer, level_total[l + 1]);
  }
  return out;
}

void BatchRunner::Sort(RowSet* rs, const std::vector<SortKey>& keys) {
  const size_t n = rs->size();
  if (n < 2) return;
  // Sort tuple positions by gathered keys. Breaking ties on position
  // makes the order total, which is exactly a stable sort.
  std::vector<uint32_t> order(n);
  std::vector<std::vector<double>> kv;
  kv.reserve(keys.size());
  for (const SortKey& k : keys) kv.push_back(GatherKeys(db_, *rs, k.col));
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (SortKeyLess(kv[k][a], kv[k][b])) return keys[k].ascending;
      if (SortKeyLess(kv[k][b], kv[k][a])) return !keys[k].ascending;
    }
    return a < b;
  });
  const size_t w = rs->width();
  std::vector<uint32_t> sorted(rs->ids.size());
  uint32_t* dst = sorted.data();
  for (uint32_t i : order) dst = std::copy(rs->Tuple(i), rs->Tuple(i) + w, dst);
  rs->ids = std::move(sorted);
}

}  // namespace

bool VectorizedExecutor::CanExecute(const PlanNode& root) {
  // Checks `n` and reports the base tables of its output rows (empty for
  // aggregate output).
  struct Checker {
    static bool Contains(const std::vector<int>& tables, int table_id) {
      return std::find(tables.begin(), tables.end(), table_id) !=
             tables.end();
    }
    static bool PredsOn(const std::vector<Predicate>& preds, int table_id) {
      for (const Predicate& p : preds) {
        if (p.table_id != table_id) return false;
      }
      return true;
    }
    // The nested-loop inner chain the row engine's ExecuteInner runs.
    static bool Inner(const PlanNode& n, ColumnRef join_col) {
      switch (n.op) {
        case PhysOp::kFilter:
          return n.children.size() == 1 && !n.residual_preds.empty() &&
                 PredsOn(n.residual_preds, join_col.table_id) &&
                 Inner(*n.child(0), join_col);
        case PhysOp::kKeyLookup:
          return n.children.size() == 1 && Inner(*n.child(0), join_col);
        case PhysOp::kIndexSeek:
          if (n.index.is_columnstore || n.index.key_columns.empty() ||
              n.index.key_columns[0] != join_col.column_id) {
            return false;
          }
          [[fallthrough]];
        case PhysOp::kTableScan:
          return n.children.empty() && n.table_id == join_col.table_id &&
                 PredsOn(n.residual_preds, n.table_id);
        default:
          return false;
      }
    }
    static bool Check(const PlanNode& n, std::vector<int>* tables,
                      bool* is_agg) {
      *is_agg = false;
      tables->clear();
      if (IsAccessOp(n.op)) {
        if (!n.children.empty() || n.table_id < 0) return false;
        if ((n.op == PhysOp::kIndexScan || n.op == PhysOp::kIndexSeek) &&
            (n.index.is_columnstore || n.index.key_columns.empty())) {
          return false;
        }
        tables->push_back(n.table_id);
        return PredsOn(n.residual_preds, n.table_id) &&
               PredsOn(n.seek_preds, n.table_id);
      }
      const size_t arity =
          n.op == PhysOp::kHashJoin || n.op == PhysOp::kMergeJoin ||
                  n.op == PhysOp::kNestedLoopJoin
              ? 2
              : 1;
      if (n.children.size() != arity) return false;
      bool child_agg = false;
      if (n.op == PhysOp::kNestedLoopJoin) {
        if (!Check(*n.child(0), tables, &child_agg) || child_agg ||
            !Contains(*tables, n.join.left.table_id) ||
            !Inner(*n.child(1), n.join.right)) {
          return false;
        }
        tables->push_back(n.join.right.table_id);
        return true;
      }
      if (arity == 2) {
        std::vector<int> right;
        bool right_agg = false;
        if (!Check(*n.child(0), tables, &child_agg) || child_agg ||
            !Check(*n.child(1), &right, &right_agg) || right_agg ||
            !Contains(*tables, n.join.left.table_id) ||
            !Contains(right, n.join.right.table_id)) {
          return false;
        }
        // Hash joins emit probe (child 1) tables first.
        if (n.op == PhysOp::kHashJoin) std::swap(*tables, right);
        tables->insert(tables->end(), right.begin(), right.end());
        return true;
      }
      if (!Check(*n.child(0), tables, &child_agg)) return false;
      switch (n.op) {
        case PhysOp::kKeyLookup:
          return !child_agg;
        case PhysOp::kFilter:
          return !child_agg && !n.residual_preds.empty() &&
                 Contains(*tables, n.residual_preds[0].table_id) &&
                 PredsOn(n.residual_preds, n.residual_preds[0].table_id);
        case PhysOp::kSort:
          *is_agg = child_agg;
          if (child_agg) return true;
          for (const SortKey& k : n.sort_keys) {
            if (!Contains(*tables, k.col.table_id)) return false;
          }
          return true;
        case PhysOp::kHashAggregate:
        case PhysOp::kStreamAggregate:
          if (child_agg) return false;
          for (const ColumnRef& c : n.group_by) {
            if (!Contains(*tables, c.table_id)) return false;
          }
          for (const AggItem& a : n.aggregates) {
            if (a.func != AggFunc::kCount &&
                !Contains(*tables, a.col.table_id)) {
              return false;
            }
          }
          tables->clear();
          *is_agg = true;
          return true;
        case PhysOp::kTop:
          *is_agg = child_agg;
          return true;
        default:
          return false;
      }
    }
  };
  std::vector<int> tables;
  bool is_agg = false;
  return Checker::Check(root, &tables, &is_agg);
}

ExecResult VectorizedExecutor::Execute(PlanNode* root) {
  AIMAI_SPAN("exec.vectorized");
  t_arena.Reset();
  BatchRunner runner(db_, indexes_);
  return runner.Run(root);
}

}  // namespace aimai

#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/check.h"

namespace aimai {

int RowSet::SlotOf(int table_id) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table_id) return static_cast<int>(i);
  }
  return -1;
}

double TupleValue(const Database& db, const RowSet& rs, ColumnRef col,
                  size_t t) {
  const int slot = rs.SlotOf(col.table_id);
  AIMAI_CHECK_MSG(slot >= 0, "column's table not in rowset");
  const uint32_t row = rs.Tuple(t)[static_cast<size_t>(slot)];
  return db.table(col.table_id)
      .column(static_cast<size_t>(col.column_id))
      .NumericAt(row);
}

RowSet HashJoinRows(const Database& db, const RowSet& build,
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

RowSet MergeJoinRows(const Database& db, const RowSet& left, ColumnRef left_col,
                     const RowSet& right, ColumnRef right_col) {
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

void SortRows(const Database& db, RowSet* rs,
              const std::vector<SortKey>& keys) {
  // Precompute slots and column pointers for speed.
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

namespace {

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

struct AggState {
  double count = 0;
  std::vector<double> sum;
  std::vector<double> min;
  std::vector<double> max;
};

}  // namespace

AggResult AggregateRows(const Database& db, const RowSet& input,
                        const std::vector<ColumnRef>& group_by,
                        const std::vector<AggItem>& aggs) {
  // Groups are registered and emitted in first-seen input order — a
  // deterministic order shared with the vectorized engine's
  // GroupedAggregator, so the two paths produce bit-identical AggResults
  // (unordered_map iteration order is implementation-defined and would
  // diverge between differently-built hash tables).
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

void SortAggResult(AggResult* agg) {
  std::vector<size_t> order(agg->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [agg](size_t a, size_t b) {
    return std::lexicographical_compare(
        agg->group_keys[a].begin(), agg->group_keys[a].end(),
        agg->group_keys[b].begin(), agg->group_keys[b].end(), SortKeyLess);
  });
  AggResult out;
  out.group_keys.reserve(agg->size());
  out.agg_values.reserve(agg->size());
  for (size_t i : order) {
    out.group_keys.push_back(std::move(agg->group_keys[i]));
    out.agg_values.push_back(std::move(agg->agg_values[i]));
  }
  *agg = std::move(out);
}

}  // namespace aimai

#ifndef AIMAI_EXEC_OPERATORS_H_
#define AIMAI_EXEC_OPERATORS_H_

#include <cstdint>
#include <vector>

#include "catalog/database.h"
#include "exec/plan.h"

namespace aimai {

/// Intermediate relation flowing between operators, shared by both
/// engines. Tuples are compositions of base-table row ids — values are
/// always fetched from the base columns, so no intermediate
/// materialization of data happens, only of row identities. `tables[i]`
/// names the base table whose row id sits in slot i of each tuple.
///
/// Storage is one contiguous row-major array: tuple t occupies
/// `ids[t * width() .. (t + 1) * width())`. Appending a tuple therefore
/// never allocates per row, only when the array grows.
struct RowSet {
  std::vector<int> tables;
  std::vector<uint32_t> ids;

  /// Slot of `table_id` in the tuples, or -1.
  int SlotOf(int table_id) const;

  size_t width() const { return tables.size(); }
  size_t size() const { return tables.empty() ? 0 : ids.size() / width(); }

  const uint32_t* Tuple(size_t t) const { return ids.data() + t * width(); }

  /// Appends one tuple of `width()` ids.
  void Append(const uint32_t* tuple) {
    ids.insert(ids.end(), tuple, tuple + width());
  }
  /// Appends the concatenation of two partial tuples (a join output row).
  void Append(const uint32_t* a, size_t na, const uint32_t* b, size_t nb) {
    ids.insert(ids.end(), a, a + na);
    ids.insert(ids.end(), b, b + nb);
  }

  /// Keeps the first `n` tuples.
  void Truncate(size_t n) {
    if (n < size()) ids.resize(n * width());
  }
};

/// Result of an aggregation: group keys (numeric views) and aggregate
/// values, one row per group.
struct AggResult {
  std::vector<std::vector<double>> group_keys;
  std::vector<std::vector<double>> agg_values;

  size_t size() const { return group_keys.size(); }
};

/// What an operator produces: either row compositions or aggregated rows.
struct ExecResult {
  bool is_agg = false;
  RowSet rows;
  AggResult agg;

  size_t size() const { return is_agg ? agg.size() : rows.size(); }
};

/// Fetches the numeric view of `col` for tuple `t` of `rs`.
double TupleValue(const Database& db, const RowSet& rs, ColumnRef col,
                  size_t t);

/// Join-key equality shared by every join in both engines: `double ==`,
/// so a NaN key never matches anything (itself included) and -0.0
/// matches 0.0.
inline bool JoinKeysEqual(double a, double b) { return a == b; }

/// Sort-key order shared by both engines: numeric `<`, with NaN ordered
/// after every number and equal to other NaNs, so the order is a strict
/// weak ordering even on NaN input. -0.0 and 0.0 tie.
inline bool SortKeyLess(double a, double b) {
  if (a != a) return false;  // NaN is never less.
  if (b != b) return true;   // Every number is less than NaN.
  return a < b;
}

/// Hash join: build on `build` side using `build_col`, probe with `probe`
/// using `probe_col`. Output tuple layout: probe tables followed by build
/// tables (probe side streams). Output order is canonical: probe order,
/// and within one probe tuple its build matches in build-input order.
RowSet HashJoinRows(const Database& db, const RowSet& build,
                    ColumnRef build_col, const RowSet& probe,
                    ColumnRef probe_col);

/// Merge join of two inputs sorted on their join columns (in SortKeyLess
/// order). Each equal-key block emits its cross product, left-major.
RowSet MergeJoinRows(const Database& db, const RowSet& left, ColumnRef left_col,
                     const RowSet& right, ColumnRef right_col);

/// In-place stable sort by key columns: ties keep their input order.
void SortRows(const Database& db, RowSet* rs,
              const std::vector<SortKey>& keys);

/// Groups `input` by `group_by` columns computing `aggs`. Used by both
/// hash and stream aggregate (they differ only in cost, not result).
AggResult AggregateRows(const Database& db, const RowSet& input,
                        const std::vector<ColumnRef>& group_by,
                        const std::vector<AggItem>& aggs);

/// Sorts an AggResult by its group keys (ascending); semantic stand-in for
/// ORDER BY over aggregate output (cardinality/cost are what matter here).
void SortAggResult(AggResult* agg);

}  // namespace aimai

#endif  // AIMAI_EXEC_OPERATORS_H_

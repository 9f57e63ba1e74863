#ifndef AIMAI_INDEX_BTREE_INDEX_H_
#define AIMAI_INDEX_BTREE_INDEX_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"

namespace aimai {

class Database;

/// Composite index key: the numeric views of the key columns, compared
/// lexicographically. Strings participate via their dictionary codes.
using IndexKey = std::vector<double>;

int CompareKeys(const IndexKey& a, const IndexKey& b);

/// A bounds specification for a seek: keys are compared against a (possibly
/// shorter) prefix bound. An empty bound means unbounded on that side.
struct KeyRange {
  IndexKey lower;       // Compared against key prefix of same length.
  bool lower_open = false;
  IndexKey upper;
  bool upper_open = false;
  bool has_lower = false;
  bool has_upper = false;
};

/// An in-memory B+-tree secondary index mapping composite keys to base-table
/// row ids. Built once by bulk loading (the engine's tables are read-only
/// during experiments), supports point/range seeks and full ordered scans.
///
/// This is a genuine paged tree (internal levels of separators over packed
/// leaves) rather than a plain sorted array, so seek cost in the execution
/// model can follow the real log-structured access pattern. Storage is
/// flat: entries are sorted by (key, row id); leaf p holds entries
/// [p * kLeafCapacity, (p + 1) * kLeafCapacity), their keys stored in one
/// `double` array with stride `key_columns.size()`. Internal level L keeps
/// the first key of every level-(L-1) page in the same layout; the
/// separators of an internal node are the first keys of its children
/// after the first.
class BTreeIndex {
 public:
  static constexpr int kLeafCapacity = 64;
  static constexpr int kInternalCapacity = 64;

  /// Builds the index over `db.table(def.table_id)`.
  BTreeIndex(const Database& db, IndexDef def);

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  const IndexDef& def() const { return def_; }
  size_t num_entries() const { return rows_.size(); }
  int height() const { return height_; }

  /// Returns the row ids whose key falls within `range`, in key order.
  std::vector<uint32_t> SeekRange(const KeyRange& range) const;

  /// Point seeks on the leading key column for `n` ascending, distinct,
  /// non-NaN `values`, in one forward sweep: appends to `*rows` the row
  /// ids whose leading key equals values[i], in key order, and sets
  /// `(*begin)[i]..(*begin)[i + 1]` to delimit them. Each run is exactly
  /// SeekRange over the one-column range [values[i], values[i]].
  void SeekPointsSorted(const double* values, size_t n,
                        std::vector<uint32_t>* rows,
                        std::vector<size_t>* begin) const;

  /// All row ids in key order (ordered index scan).
  const std::vector<uint32_t>& ScanAll() const { return rows_; }

  /// Number of leaf pages the seek touches (used by execution cost model).
  size_t CountLeafPages(const KeyRange& range) const;

 private:
  const double* KeyAt(size_t entry) const {
    return keys_.data() + entry * width_;
  }

  /// Entry index of the first key the seek starts from: the descent's
  /// target leaf, at its first key at or above the lower bound (the next
  /// leaf's first entry when none is), or 0 when unbounded below.
  size_t FindStart(const KeyRange& range) const;

  bool BelowUpper(const double* key, const KeyRange& range) const;
  bool AboveLower(const double* key, const KeyRange& range) const;

  IndexDef def_;
  size_t width_ = 0;                 // Key columns per entry.
  std::vector<double> keys_;         // Sorted entry keys, stride width_.
  std::vector<uint32_t> rows_;       // Row id of each sorted entry.
  // level_first_keys_[L]: first key of every page at level L (0 = leaves),
  // stride width_. Only levels below the root are kept.
  std::vector<std::vector<double>> level_first_keys_;
  int height_ = 1;
};

}  // namespace aimai

#endif  // AIMAI_INDEX_BTREE_INDEX_H_

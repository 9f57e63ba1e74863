#include "index/btree_index.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "catalog/database.h"
#include "common/check.h"

namespace aimai {

int CompareKeys(const IndexKey& a, const IndexKey& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  // A shorter key is a prefix: equal on the shared prefix.
  return 0;
}

namespace {

/// Compares a full key against a prefix bound: only the bound's length
/// participates.
int ComparePrefix(const double* key, size_t width, const IndexKey& bound) {
  for (size_t i = 0; i < bound.size(); ++i) {
    AIMAI_CHECK(i < width);
    if (key[i] < bound[i]) return -1;
    if (key[i] > bound[i]) return 1;
  }
  return 0;
}

/// Maps a key value to bits whose unsigned order is the value's numeric
/// order. -0.0 maps like 0.0, since the two compare equal.
uint64_t SortableBits(double v) {
  if (v == 0) v = 0.0;
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return (b & kSign) != 0 ? ~b : (b | kSign);
}

/// Returns the table's row ids sorted by key, then row id (the order
/// CompareKeys gives, ties by row). A stable LSD radix sort over
/// contiguous (key..., row) entries of `width + 1` words that start in row
/// order: one key byte per pass, from the last column's low byte to the
/// first column's high byte, skipping bytes every entry shares (most of a
/// small-domain column's).
std::vector<uint32_t> SortRowsByKey(const std::vector<const Column*>& cols,
                                    size_t n) {
  const size_t width = cols.size();
  const size_t stride = width + 1;
  std::vector<uint64_t> entries(n * stride);
  std::vector<std::array<uint32_t, 256>> hist(width * 8);
  for (auto& h : hist) h.fill(0);
  for (size_t r = 0; r < n; ++r) {
    uint64_t* e = entries.data() + r * stride;
    for (size_t c = 0; c < width; ++c) {
      e[c] = SortableBits(cols[c]->NumericAt(r));
      for (size_t b = 0; b < 8; ++b) ++hist[c * 8 + b][(e[c] >> (8 * b)) & 0xff];
    }
    e[width] = r;
  }
  std::vector<uint64_t> scratch(n * stride);
  const uint64_t* src = entries.data();
  uint64_t* dst = scratch.data();
  for (size_t c = width; c-- > 0;) {
    for (size_t b = 0; b < 8; ++b) {
      const std::array<uint32_t, 256>& h = hist[c * 8 + b];
      if (std::find(h.begin(), h.end(), static_cast<uint32_t>(n)) != h.end()) {
        continue;  // Every entry shares this byte.
      }
      std::array<size_t, 256> next;
      size_t sum = 0;
      for (size_t d = 0; d < 256; ++d) {
        next[d] = sum;
        sum += h[d];
      }
      const unsigned shift = static_cast<unsigned>(8 * b);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t* e = src + i * stride;
        std::copy_n(e, stride, dst + next[(e[c] >> shift) & 0xff]++ * stride);
      }
      src = dst;
      dst = src == entries.data() ? scratch.data() : entries.data();
    }
  }
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<uint32_t>(src[i * stride + width]);
  }
  return rows;
}

}  // namespace

bool BTreeIndex::AboveLower(const double* key, const KeyRange& range) const {
  if (!range.has_lower) return true;
  const int c = ComparePrefix(key, width_, range.lower);
  return range.lower_open ? c > 0 : c >= 0;
}

bool BTreeIndex::BelowUpper(const double* key, const KeyRange& range) const {
  if (!range.has_upper) return true;
  const int c = ComparePrefix(key, width_, range.upper);
  return range.upper_open ? c < 0 : c <= 0;
}

BTreeIndex::BTreeIndex(const Database& db, IndexDef def)
    : def_(std::move(def)) {
  AIMAI_CHECK(!def_.is_columnstore);
  AIMAI_CHECK(!def_.key_columns.empty());
  const Table& table = db.table(def_.table_id);
  const size_t n = table.num_rows();
  width_ = def_.key_columns.size();

  std::vector<const Column*> cols;
  for (int c : def_.key_columns) {
    cols.push_back(&table.column(static_cast<size_t>(c)));
  }
  rows_ = SortRowsByKey(cols, n);
  keys_.resize(n * width_);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < width_; ++c) {
      keys_[i * width_ + c] = cols[c]->NumericAt(rows_[i]);
    }
  }

  // Bottom-up bulk load: pages are packed full, so each level is the
  // first keys of the level below, taken every capacity-th page.
  std::vector<double> first_keys;
  for (size_t i = 0; i < n; i += kLeafCapacity) {
    first_keys.insert(first_keys.end(), KeyAt(i), KeyAt(i) + width_);
  }
  size_t pages = (n + kLeafCapacity - 1) / kLeafCapacity;
  while (pages > 1) {
    std::vector<double> parent_first_keys;
    for (size_t i = 0; i < pages; i += kInternalCapacity) {
      const double* k = first_keys.data() + i * width_;
      parent_first_keys.insert(parent_first_keys.end(), k, k + width_);
    }
    level_first_keys_.push_back(std::move(first_keys));
    first_keys = std::move(parent_first_keys);
    pages = (pages + kInternalCapacity - 1) / kInternalCapacity;
    ++height_;
  }
}

size_t BTreeIndex::FindStart(const KeyRange& range) const {
  const size_t n = rows_.size();
  if (!range.has_lower || n == 0) return 0;
  // `reaches(key)`: the key is at or past the lower bound (prefix compare).
  // It is monotone over sorted keys, so every "first key that reaches"
  // below is a binary search.
  auto reaches = [this, &range](const double* key) {
    const int cmp = ComparePrefix(key, width_, range.lower);
    return cmp > 0 || (!range.lower_open && cmp == 0);
  };
  auto first_reaching = [&reaches](const double* keys, size_t stride,
                                   size_t lo, size_t hi) {
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (reaches(keys + mid * stride)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };
  // Descend from the root: in each internal node take the child before
  // the first separator that reaches the bound (the last child when none
  // does). Child i covers keys below separator i, the first key of child
  // i + 1.
  size_t page = 0;
  for (int level = height_ - 1; level >= 1; --level) {
    const std::vector<double>& child_keys =
        level_first_keys_[static_cast<size_t>(level - 1)];
    const size_t num_children = child_keys.size() / width_;
    const size_t begin = page * kInternalCapacity;
    const size_t end =
        std::min(num_children, begin + static_cast<size_t>(kInternalCapacity));
    page = first_reaching(child_keys.data(), width_, begin + 1, end) - 1;
  }
  // The first key in the leaf that reaches the bound; when none does, the
  // seek starts at the next leaf.
  const size_t leaf_begin = page * kLeafCapacity;
  const size_t leaf_end =
      std::min(n, leaf_begin + static_cast<size_t>(kLeafCapacity));
  return first_reaching(keys_.data(), width_, leaf_begin, leaf_end);
}

std::vector<uint32_t> BTreeIndex::SeekRange(const KeyRange& range) const {
  std::vector<uint32_t> out;
  const size_t n = rows_.size();
  for (size_t e = FindStart(range); e < n; ++e) {
    const double* key = KeyAt(e);
    if (!BelowUpper(key, range)) break;
    if (AboveLower(key, range)) out.push_back(rows_[e]);
  }
  return out;
}

void BTreeIndex::SeekPointsSorted(const double* values, size_t n,
                                  std::vector<uint32_t>* rows,
                                  std::vector<size_t>* begin) const {
  const size_t entries = rows_.size();
  auto lead = [this](size_t e) { return keys_[e * width_]; };
  // First entry at or after `from` whose leading key is not below `v`
  // (or, with `past`, above it): gallop, then binary search.
  auto first_from = [&](size_t from, double v, bool past) {
    auto before = [&](size_t e) { return past ? lead(e) <= v : lead(e) < v; };
    size_t lo = from, hi = from, step = 1;
    while (hi < entries && before(hi)) {
      lo = hi + 1;
      hi += step;
      step *= 2;
    }
    hi = std::min(hi, entries);
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (before(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  begin->assign(n + 1, rows->size());
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t first = first_from(pos, values[i], /*past=*/false);
    pos = first_from(first, values[i], /*past=*/true);
    rows->insert(rows->end(), rows_.begin() + static_cast<std::ptrdiff_t>(first),
                 rows_.begin() + static_cast<std::ptrdiff_t>(pos));
    (*begin)[i + 1] = rows->size();
  }
}

size_t BTreeIndex::CountLeafPages(const KeyRange& range) const {
  const size_t n = rows_.size();
  size_t pages = 0;
  size_t e = FindStart(range);
  while (e < n) {
    const size_t leaf_end =
        std::min(n, (e / kLeafCapacity + 1) * static_cast<size_t>(kLeafCapacity));
    bool any = false;
    bool exceeded = false;
    for (; e < leaf_end; ++e) {
      if (!BelowUpper(KeyAt(e), range)) {
        exceeded = true;
        break;
      }
      if (AboveLower(KeyAt(e), range)) any = true;
    }
    if (any) ++pages;
    if (exceeded) break;
    e = leaf_end;
  }
  return pages;
}

}  // namespace aimai

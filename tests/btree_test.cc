// Unit & property tests for the B+-tree index: seeks validated against a
// brute-force oracle over random data, keys, and ranges.

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/database.h"
#include "index/btree_index.h"
#include "storage/data_generator.h"

namespace aimai {
namespace {

std::unique_ptr<Database> MakeDb(size_t rows, int64_t domain, uint64_t seed) {
  auto db = std::make_unique<Database>("btree_db");
  DataGenerator gen(Rng{seed});
  auto t = std::make_unique<Table>("t");
  gen.FillUniformInt(t->AddColumn("a", DataType::kInt64), rows, 0, domain);
  gen.FillUniformInt(t->AddColumn("b", DataType::kInt64), rows, 0, 5);
  t->SealRows();
  db->AddTable(std::move(t));
  return db;
}

IndexDef SingleCol() {
  IndexDef d;
  d.table_id = 0;
  d.key_columns = {0};
  return d;
}

TEST(BTreeTest, EmptyTable) {
  auto db = std::make_unique<Database>("e");
  auto t = std::make_unique<Table>("t");
  t->AddColumn("a", DataType::kInt64);
  t->SealRows();
  db->AddTable(std::move(t));
  BTreeIndex idx(*db, SingleCol());
  EXPECT_EQ(idx.num_entries(), 0u);
  KeyRange all;
  EXPECT_TRUE(idx.SeekRange(all).empty());
  EXPECT_TRUE(idx.ScanAll().empty());
}

TEST(BTreeTest, ScanAllIsSortedPermutation) {
  auto db = MakeDb(500, 50, 1);
  BTreeIndex idx(*db, SingleCol());
  EXPECT_EQ(idx.num_entries(), 500u);
  const std::vector<uint32_t> rows = idx.ScanAll();
  EXPECT_EQ(rows.size(), 500u);
  const Column& col = db->table(0).column(0);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(col.NumericAt(rows[i - 1]), col.NumericAt(rows[i]));
  }
  std::vector<uint32_t> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(BTreeTest, HeightGrowsWithSize) {
  auto small = MakeDb(10, 100, 2);
  BTreeIndex sidx(*small, SingleCol());
  EXPECT_EQ(sidx.height(), 1);
  auto big = MakeDb(20000, 100000, 3);
  BTreeIndex bidx(*big, SingleCol());
  EXPECT_GE(bidx.height(), 2);
}

// Property test: random range seeks match a brute-force oracle.
class BTreeSeekProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeSeekProperty, MatchesOracle) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t rows = 200 + rng.Index(2000);
  const int64_t domain = 1 + static_cast<int64_t>(rng.Index(300));
  auto db = MakeDb(rows, domain, seed + 10);
  BTreeIndex idx(*db, SingleCol());
  const Column& col = db->table(0).column(0);

  for (int trial = 0; trial < 25; ++trial) {
    KeyRange range;
    const int shape = static_cast<int>(rng.Index(4));
    const double lo = static_cast<double>(rng.UniformInt(-2, domain + 2));
    const double hi = lo + static_cast<double>(rng.UniformInt(0, domain));
    if (shape == 0) {  // Equality.
      range.lower = {lo};
      range.upper = {lo};
      range.has_lower = range.has_upper = true;
    } else if (shape == 1) {  // Range [lo, hi], maybe open ends.
      range.lower = {lo};
      range.upper = {hi};
      range.has_lower = range.has_upper = true;
      range.lower_open = rng.Bernoulli(0.5);
      range.upper_open = rng.Bernoulli(0.5);
    } else if (shape == 2) {  // Lower bound only.
      range.lower = {lo};
      range.has_lower = true;
      range.lower_open = rng.Bernoulli(0.5);
    } else {  // Upper bound only.
      range.upper = {hi};
      range.has_upper = true;
      range.upper_open = rng.Bernoulli(0.5);
    }

    std::vector<uint32_t> expected;
    for (size_t r = 0; r < rows; ++r) {
      const double v = col.NumericAt(r);
      bool ok = true;
      if (range.has_lower) {
        ok &= range.lower_open ? v > range.lower[0] : v >= range.lower[0];
      }
      if (range.has_upper) {
        ok &= range.upper_open ? v < range.upper[0] : v <= range.upper[0];
      }
      if (ok) expected.push_back(static_cast<uint32_t>(r));
    }
    std::vector<uint32_t> got = idx.SeekRange(range);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected) << "seed=" << seed << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BTreeSeekProperty,
                         ::testing::Range<uint64_t>(0, 12));

// Composite-key seeks: equality prefix + range on the second column.
TEST(BTreeTest, CompositeKeySeek) {
  auto db = MakeDb(3000, 20, 7);
  IndexDef def;
  def.table_id = 0;
  def.key_columns = {1, 0};  // (b, a).
  BTreeIndex idx(*db, def);
  const Column& ca = db->table(0).column(0);
  const Column& cb = db->table(0).column(1);

  // b == 3 AND a in [5, 12].
  KeyRange range;
  range.lower = {3.0, 5.0};
  range.upper = {3.0, 12.0};
  range.has_lower = range.has_upper = true;

  std::vector<uint32_t> expected;
  for (size_t r = 0; r < 3000; ++r) {
    if (cb.NumericAt(r) == 3.0 && ca.NumericAt(r) >= 5.0 &&
        ca.NumericAt(r) <= 12.0) {
      expected.push_back(static_cast<uint32_t>(r));
    }
  }
  std::vector<uint32_t> got = idx.SeekRange(range);
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);

  // Equality prefix only: b == 3.
  KeyRange prefix;
  prefix.lower = {3.0};
  prefix.upper = {3.0};
  prefix.has_lower = prefix.has_upper = true;
  size_t expected_count = 0;
  for (size_t r = 0; r < 3000; ++r) {
    if (cb.NumericAt(r) == 3.0) ++expected_count;
  }
  EXPECT_EQ(idx.SeekRange(prefix).size(), expected_count);
}

TEST(BTreeTest, CountLeafPagesBounded) {
  auto db = MakeDb(5000, 1000, 9);
  BTreeIndex idx(*db, SingleCol());
  KeyRange all;
  const size_t total_pages = idx.CountLeafPages(all);
  EXPECT_GE(total_pages, 5000u / BTreeIndex::kLeafCapacity);
  KeyRange point;
  point.lower = {500.0};
  point.upper = {500.0};
  point.has_lower = point.has_upper = true;
  EXPECT_LE(idx.CountLeafPages(point), 2u);
}

// Flat bulk-load equivalence: random 1-3 column keys over tiny domains
// (heavy duplicates, signed zeros in the double column), checked against
// a brute-force sorted reference — ScanAll order, seeks of every bound
// shape, leaf pages touched, and tree height.
class BTreeReferenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeReferenceProperty, MatchesSortedReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 1);
  // Mostly small trees, some past 64 * 64 entries for a third level.
  const size_t rows =
      rng.Bernoulli(0.3) ? 4097 + rng.Index(5000) : rng.Index(1500);
  auto db = std::make_unique<Database>("btree_ref");
  auto t = std::make_unique<Table>("t");
  Column* c0 = t->AddColumn("a", DataType::kInt64);
  Column* c1 = t->AddColumn("b", DataType::kDouble);
  Column* c2 = t->AddColumn("c", DataType::kInt64);
  const double doubles[] = {-1.5, -0.0, 0.0, 2.25, 7.0};
  for (size_t r = 0; r < rows; ++r) {
    c0->AppendInt(rng.UniformInt(0, 6));
    c1->AppendDouble(doubles[rng.Index(5)]);
    c2->AppendInt(rng.UniformInt(-2, 2));
  }
  t->SealRows();
  db->AddTable(std::move(t));

  const size_t width = 1 + rng.Index(3);
  IndexDef def;
  def.table_id = 0;
  std::vector<int> cols = {0, 1, 2};
  for (size_t i = 0; i < 3; ++i) std::swap(cols[i], cols[rng.Index(3)]);
  def.key_columns.assign(cols.begin(), cols.begin() + width);
  BTreeIndex idx(*db, def);

  // Reference: (key, row) entries sorted by key, then row id.
  const Table& table = db->table(0);
  std::vector<std::pair<IndexKey, uint32_t>> ref;
  for (size_t r = 0; r < rows; ++r) {
    IndexKey key;
    for (int c : def.key_columns) {
      key.push_back(table.column(static_cast<size_t>(c)).NumericAt(r));
    }
    ref.emplace_back(std::move(key), static_cast<uint32_t>(r));
  }
  std::sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
    const int c = CompareKeys(a.first, b.first);
    return c != 0 ? c < 0 : a.second < b.second;
  });

  std::vector<uint32_t> ref_rows;
  for (const auto& e : ref) ref_rows.push_back(e.second);
  ASSERT_EQ(idx.ScanAll(), ref_rows) << "seed=" << seed;
  ASSERT_EQ(idx.num_entries(), rows);

  int height = 1;
  for (size_t pages = (rows + 63) / 64; pages > 1; pages = (pages + 63) / 64) {
    ++height;
  }
  EXPECT_EQ(idx.height(), height) << "rows=" << rows;

  auto in_range = [](const IndexKey& key, const KeyRange& range) {
    if (range.has_lower) {
      const int c = CompareKeys(key, range.lower);
      if (range.lower_open ? c <= 0 : c < 0) return false;
    }
    if (range.has_upper) {
      const int c = CompareKeys(key, range.upper);
      if (range.upper_open ? c >= 0 : c > 0) return false;
    }
    return true;
  };
  for (int trial = 0; trial < 60; ++trial) {
    // Bounds are prefixes of real keys (or nearby values), so duplicates
    // straddle leaf boundaries.
    const IndexKey& pick = ref.empty() ? IndexKey(width, 0.0)
                                       : ref[rng.Index(ref.size())].first;
    KeyRange range;
    const int shape = static_cast<int>(rng.Index(5));
    const size_t prefix = 1 + rng.Index(width);  // Equality columns.
    IndexKey eq(pick.begin(), pick.begin() + static_cast<long>(prefix));
    if (shape == 0) {  // Point or prefix equality.
      range.lower = range.upper = eq;
      range.has_lower = range.has_upper = true;
    } else if (shape == 1) {  // Equality prefix, then a range column.
      IndexKey lo = eq, hi = eq;
      lo.back() -= static_cast<double>(rng.Index(3));
      hi.back() += static_cast<double>(rng.Index(3));
      range.lower = lo;
      range.upper = hi;
      range.has_lower = range.has_upper = true;
      range.lower_open = rng.Bernoulli(0.5);
      range.upper_open = rng.Bernoulli(0.5);
    } else if (shape == 2) {  // Lower bound only.
      range.lower = eq;
      range.has_lower = true;
      range.lower_open = rng.Bernoulli(0.5);
    } else if (shape == 3) {  // Upper bound only.
      range.upper = eq;
      range.has_upper = true;
      range.upper_open = rng.Bernoulli(0.5);
    }  // shape 4: unbounded.

    std::vector<uint32_t> expected;
    std::vector<size_t> leaves;
    for (size_t i = 0; i < ref.size(); ++i) {
      if (!in_range(ref[i].first, range)) continue;
      expected.push_back(ref[i].second);
      const size_t leaf = i / BTreeIndex::kLeafCapacity;
      if (leaves.empty() || leaves.back() != leaf) leaves.push_back(leaf);
    }
    ASSERT_EQ(idx.SeekRange(range), expected)
        << "seed=" << seed << " trial=" << trial << " shape=" << shape;
    ASSERT_EQ(idx.CountLeafPages(range), leaves.size())
        << "seed=" << seed << " trial=" << trial << " shape=" << shape;
  }

  // Batched point seeks on the leading column equal one SeekRange each.
  std::vector<double> points;
  for (double v = -3; v <= 8; v += 0.25) points.push_back(v);
  std::vector<uint32_t> rows_out = {7};  // Appends after existing rows.
  std::vector<size_t> begin;
  idx.SeekPointsSorted(points.data(), points.size(), &rows_out, &begin);
  ASSERT_EQ(begin.size(), points.size() + 1);
  ASSERT_EQ(begin.front(), 1u);
  ASSERT_EQ(begin.back(), rows_out.size());
  for (size_t i = 0; i < points.size(); ++i) {
    KeyRange point;
    point.lower = point.upper = {points[i]};
    point.has_lower = point.has_upper = true;
    const std::vector<uint32_t> got(rows_out.begin() + static_cast<long>(begin[i]),
                                    rows_out.begin() + static_cast<long>(begin[i + 1]));
    ASSERT_EQ(got, idx.SeekRange(point)) << "seed=" << seed << " v=" << points[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BTreeReferenceProperty,
                         ::testing::Range<uint64_t>(0, 16));

TEST(CompareKeysTest, LexicographicWithPrefix) {
  EXPECT_EQ(CompareKeys({1, 2}, {1, 3}), -1);
  EXPECT_EQ(CompareKeys({2}, {1, 9}), 1);
  EXPECT_EQ(CompareKeys({1}, {1, 9}), 0);  // Prefix compares equal.
  EXPECT_EQ(CompareKeys({}, {1}), 0);
}

}  // namespace
}  // namespace aimai

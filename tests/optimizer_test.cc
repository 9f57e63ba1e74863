// Unit tests for optimizer/: histograms, cardinality estimation, plan
// enumeration invariants, what-if semantics, and bit-identity of the
// production enumerator against the build-every-candidate reference.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <thread>

#include "optimizer/cardinality_estimator.h"
#include "optimizer/histogram.h"
#include "optimizer/plan_enumerator.h"
#include "optimizer/what_if.h"
#include "reference_enumerator.h"
#include "storage/data_generator.h"
#include "tuner/candidates.h"
#include "workloads/customer.h"
#include "workloads/query_helpers.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"
#include "workloads/tpch_sf.h"

namespace aimai {
namespace {

using workload_internal::Col;
using workload_internal::Join;
using workload_internal::PredBetween;
using workload_internal::PredCmp;
using workload_internal::PredEq;

TEST(HistogramTest, UniformRangeEstimatesAreAccurate) {
  DataGenerator gen(Rng{1});
  Column c("x", DataType::kInt64);
  gen.FillUniformInt(&c, 50000, 0, 999);
  Histogram h = Histogram::Build(c, 16);
  EXPECT_DOUBLE_EQ(h.row_count(), 50000);
  EXPECT_NEAR(h.distinct_count(), 1000, 5);

  NumericBounds range;
  range.has_lo = range.has_hi = true;
  range.lo = 100;
  range.hi = 299;
  EXPECT_NEAR(h.EstimateSelectivity(range), 0.2, 0.03);

  NumericBounds open;
  open.has_hi = true;
  open.hi = 500;
  EXPECT_NEAR(h.EstimateSelectivity(open), 0.5, 0.03);
}

TEST(HistogramTest, PointEstimateUsesUniformFrequency) {
  DataGenerator gen(Rng{2});
  Column c("x", DataType::kInt64);
  gen.FillZipfInt(&c, 20000, 0, 100, 1.0);
  Histogram h = Histogram::Build(c, 16);
  NumericBounds point;
  point.has_lo = point.has_hi = true;
  point.lo = point.hi = 0;  // The heavy value.
  // The estimate is 1/NDV regardless of skew — by design, this badly
  // underestimates the heavy value (the paper's premise).
  const double est = h.EstimateSelectivity(point);
  EXPECT_NEAR(est, 1.0 / h.distinct_count(), 1e-9);
  int actual = 0;
  for (size_t i = 0; i < c.size(); ++i) {
    if (c.GetInt(i) == 0) ++actual;
  }
  EXPECT_GT(static_cast<double>(actual) / 20000.0, 5 * est);
}

TEST(HistogramTest, OutOfDomainIsZero) {
  DataGenerator gen(Rng{3});
  Column c("x", DataType::kInt64);
  gen.FillUniformInt(&c, 1000, 10, 20);
  Histogram h = Histogram::Build(c, 8);
  NumericBounds point;
  point.has_lo = point.has_hi = true;
  point.lo = point.hi = 100;
  EXPECT_DOUBLE_EQ(h.EstimateSelectivity(point), 0.0);
  NumericBounds below;
  below.has_hi = true;
  below.hi_open = true;
  below.hi = 10;
  EXPECT_NEAR(h.EstimateSelectivity(below), 0.0, 0.02);
}

TEST(CardinalityTest, IndependenceMultipliesSelectivities) {
  auto bdb = BuildTpchLike("card", 2, 0.0, 11);  // Uniform data.
  StatisticsCatalog stats(bdb->db());
  CardinalityEstimator card(&stats);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  const int shipdate = Col(d, li, "l_shipdate");
  const int quantity = Col(d, li, "l_quantity");

  const Predicate p1 = PredBetween(li, shipdate, Value::Int(0),
                                   Value::Int(1249));  // ~half the span.
  const Predicate p2 =
      PredCmp(li, quantity, CmpOp::kLe, Value::Int(25));  // ~half.
  const double s1 = card.ConjunctionSelectivity(li, {p1});
  const double s2 = card.ConjunctionSelectivity(li, {p2});
  const double s12 = card.ConjunctionSelectivity(li, {p1, p2});
  EXPECT_NEAR(s12, s1 * s2, 0.02);
}

TEST(CardinalityTest, FkJoinEstimateNearChildSize) {
  auto bdb = BuildTpchLike("cardj", 2, 0.0, 12);
  StatisticsCatalog stats(bdb->db());
  CardinalityEstimator card(&stats);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  const int ord = d.FindTable("orders");
  const JoinCond j = Join(li, Col(d, li, "l_orderkey"), ord,
                          Col(d, ord, "o_orderkey"));
  const double est = card.EstimateJoinRows(stats.TableRows(li),
                                           stats.TableRows(ord), j);
  // FK join: |lineitem| x |orders| / ndv(orderkey) ~ |lineitem|.
  EXPECT_NEAR(est, stats.TableRows(li), stats.TableRows(li) * 0.1);
}

TEST(CardinalityTest, GroupEstimateCappedByInput) {
  auto bdb = BuildTpchLike("cardg", 1, 0.0, 13);
  StatisticsCatalog stats(bdb->db());
  CardinalityEstimator card(&stats);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  const double groups = card.EstimateGroups(
      10.0, {ColumnRef{li, Col(d, li, "l_orderkey")}});
  EXPECT_LE(groups, 10.0);
  EXPECT_GE(groups, 1.0);
}

TEST(PlanEnumeratorTest, SeekChosenForSelectivePredicateWithIndex) {
  auto bdb = BuildTpchLike("enum1", 2, 0.0, 14);
  const Database& d = *bdb->db();
  const int ord = d.FindTable("orders");

  QuerySpec q;
  q.name = "point";
  q.tables = {ord};
  q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(3))};
  q.select_columns = {ColumnRef{ord, Col(d, ord, "o_orderdate")}};

  // Without an index: scan.
  const auto p0 = bdb->what_if()->Optimize(q, {});
  EXPECT_EQ(p0->root->op, PhysOp::kTableScan);

  // With a covering index: seek, and cheaper by estimate.
  Configuration config;
  IndexDef idx;
  idx.table_id = ord;
  idx.key_columns = {Col(d, ord, "o_custkey")};
  idx.include_columns = {Col(d, ord, "o_orderdate")};
  config.Add(idx);
  const auto p1 = bdb->what_if()->Optimize(q, config);
  bool has_seek = false;
  p1->root->Visit([&has_seek](const PlanNode& n) {
    if (n.op == PhysOp::kIndexSeek) has_seek = true;
  });
  EXPECT_TRUE(has_seek);
  EXPECT_LT(p1->est_total_cost, p0->est_total_cost);
}

TEST(PlanEnumeratorTest, KeyLookupForNonCoveringIndex) {
  auto bdb = BuildTpchLike("enum2", 2, 0.0, 15);
  const Database& d = *bdb->db();
  const int ord = d.FindTable("orders");

  QuerySpec q;
  q.name = "noncover";
  q.tables = {ord};
  q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(3))};
  q.select_columns = {ColumnRef{ord, Col(d, ord, "o_totalprice")}};

  Configuration config;
  IndexDef idx;
  idx.table_id = ord;
  idx.key_columns = {Col(d, ord, "o_custkey")};  // No includes.
  config.Add(idx);
  const auto p = bdb->what_if()->Optimize(q, config);
  bool has_lookup = false;
  p->root->Visit([&has_lookup](const PlanNode& n) {
    if (n.op == PhysOp::kKeyLookup) has_lookup = true;
  });
  EXPECT_TRUE(has_lookup);
}

TEST(PlanEnumeratorTest, ColumnstoreScanUnderColumnstoreConfig) {
  auto bdb = BuildTpchLike("enum3", 2, 0.0, 16);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  const QuerySpec* agg_query = nullptr;
  for (const QuerySpec& q : bdb->queries()) {
    if (q.tables.size() == 1 && q.tables[0] == li && q.HasAggregation()) {
      agg_query = &q;
      break;
    }
  }
  ASSERT_NE(agg_query, nullptr);
  Configuration config;
  IndexDef cs;
  cs.table_id = li;
  cs.is_columnstore = true;
  config.Add(cs);
  const auto p = bdb->what_if()->Optimize(*agg_query, config);
  bool has_cs = false;
  p->root->Visit([&has_cs](const PlanNode& n) {
    if (n.op == PhysOp::kColumnstoreScan) {
      has_cs = true;
      EXPECT_EQ(n.mode, ExecMode::kBatch);
    }
  });
  EXPECT_TRUE(has_cs);
}

TEST(PlanEnumeratorTest, EstimatesPopulatedOnEveryNode) {
  auto bdb = BuildTpchLike("enum4", 1, 0.9, 17);
  for (const QuerySpec& q : bdb->queries()) {
    const auto p = bdb->what_if()->Optimize(q, {});
    EXPECT_GT(p->est_total_cost, 0) << q.name;
    p->root->Visit([&q](const PlanNode& n) {
      EXPECT_GE(n.stats.est_rows, 0) << q.name;
      EXPECT_GE(n.stats.est_cost, 0) << q.name;
      EXPECT_GT(n.stats.est_subtree_cost, 0) << q.name;
    });
    // Subtree cost at root ~ total minus parallel startup.
    EXPECT_LE(p->root->stats.est_subtree_cost, p->est_total_cost + 1e-9);
  }
}

TEST(PlanEnumeratorTest, MoreIndexesNeverHurtEstimatedCost) {
  // The optimizer picks the cheapest plan in a superset search space, so
  // est cost must be monotone non-increasing in the configuration.
  auto bdb = BuildTpchLike("enum5", 1, 0.9, 18);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  IndexDef idx;
  idx.table_id = li;
  idx.key_columns = {Col(d, li, "l_shipdate")};
  Configuration config;
  config.Add(idx);
  for (const QuerySpec& q : bdb->queries()) {
    const double base = bdb->what_if()->Optimize(q, {})->est_total_cost;
    const double with = bdb->what_if()->Optimize(q, config)->est_total_cost;
    EXPECT_LE(with, base + 1e-9) << q.name;
  }
}

TEST(PlanEnumeratorTest, ConcurrentOptimizeMatchesSerial) {
  // One enumerator serves every runner thread of a what-if optimizer:
  // Optimize keeps its search state per call, so concurrent calls must
  // return exactly the serial plans.
  auto bdb = BuildTpcdsLike("enum_mt", 1, 0.8, false, 22);
  PlanEnumerator enumerator(bdb->db(), bdb->stats());
  CandidateGenerator candidates(bdb->db(), bdb->stats());
  std::vector<std::pair<const QuerySpec*, Configuration>> work;
  for (const QuerySpec& q : bdb->queries()) {
    work.emplace_back(&q, Configuration());
    for (const IndexDef& idx : candidates.Generate(q, Configuration())) {
      Configuration c;
      c.Add(idx);
      work.emplace_back(&q, std::move(c));
    }
  }
  std::vector<uint64_t> serial;
  for (const auto& [q, config] : work) {
    serial.push_back(enumerator.Optimize(*q, config)->ContentHash());
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<uint64_t>> got(kThreads,
                                         std::vector<uint64_t>(work.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the work in a different rotation.
      for (size_t k = 0; k < work.size(); ++k) {
        const size_t i = (k + static_cast<size_t>(t) * 7) % work.size();
        got[static_cast<size_t>(t)][i] =
            enumerator.Optimize(*work[i].first, work[i].second)
                ->ContentHash();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], serial) << "thread " << t;
  }
}

TEST(WhatIfTest, CacheKeyedByQueryAndConfig) {
  auto bdb = BuildTpchLike("wi", 1, 0.5, 19);
  const QuerySpec& q0 = bdb->queries()[0];
  const QuerySpec& q1 = bdb->queries()[1];
  Configuration empty;
  const auto a = bdb->what_if()->Optimize(q0, empty);
  const auto b = bdb->what_if()->Optimize(q1, empty);
  EXPECT_NE(a, b);
  EXPECT_EQ(bdb->what_if()->Optimize(q0, empty), a);

  IndexDef idx;
  idx.table_id = q0.tables[0];
  idx.key_columns = {0};
  Configuration c2;
  c2.Add(idx);
  EXPECT_NE(bdb->what_if()->Optimize(q0, c2), a);
}

TEST(QuerySpecTest, TemplateHashIgnoresConstants) {
  auto bdb = BuildTpchLike("qh", 1, 0.5, 20);
  const Database& d = *bdb->db();
  const int ord = d.FindTable("orders");
  QuerySpec a;
  a.tables = {ord};
  a.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(3))};
  QuerySpec b = a;
  b.predicates[0].lo = Value::Int(77);  // Different constant.
  EXPECT_EQ(a.TemplateHash(), b.TemplateHash());
  QuerySpec c = a;
  c.predicates[0].op = CmpOp::kLe;  // Different operator.
  EXPECT_NE(a.TemplateHash(), c.TemplateHash());
}

TEST(QuerySpecTest, ReferencedColumnsCoversAllClauses) {
  auto bdb = BuildTpchLike("rc", 1, 0.5, 21);
  const Database& d = *bdb->db();
  const int ord = d.FindTable("orders");
  const int li = d.FindTable("lineitem");
  QuerySpec q;
  q.tables = {ord, li};
  q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(1))};
  q.joins = {Join(ord, Col(d, ord, "o_orderkey"), li,
                  Col(d, li, "l_orderkey"))};
  q.group_by = {ColumnRef{ord, Col(d, ord, "o_orderdate")}};
  q.aggregates = {{AggFunc::kSum, ColumnRef{li, Col(d, li, "l_quantity")}}};
  const std::vector<int> ord_cols = q.ReferencedColumns(ord);
  EXPECT_EQ(ord_cols.size(), 3u);  // custkey, orderkey, orderdate.
  const std::vector<int> li_cols = q.ReferencedColumns(li);
  EXPECT_EQ(li_cols.size(), 2u);  // orderkey, quantity.
}

// ------------------------------------------- reference enumerator oracle

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Every node's est_* fields as bit patterns, in pre-order.
std::vector<uint64_t> EstBits(const PhysicalPlan& plan) {
  std::vector<uint64_t> out;
  plan.root->Visit([&out](const PlanNode& n) {
    const NodeStats& s = n.stats;
    for (double v : {s.est_rows, s.est_executions, s.est_access_rows,
                     s.est_bytes, s.est_bytes_processed, s.est_cost,
                     s.est_subtree_cost}) {
      out.push_back(Bits(v));
    }
  });
  out.push_back(Bits(plan.est_total_cost));
  return out;
}

struct OracleTally {
  int plans = 0;
  int multi_table_plans = 0;  // Plans over >= 3 tables (greedy at dp 2).
  int parallel_plans = 0;
  std::set<PhysOp> ops;
};

/// Optimizes every query of `bdb` with the production enumerator and the
/// reference under its initial configuration and then through three greedy
/// rounds over its CandidateGenerator candidates (each round adopts the
/// candidate with the lowest estimated cost), asserting bit-identical plans
/// and costs, and that re-annotating a clone of each plan reproduces every
/// est_* bit.
void ExpectMatchesReference(BenchmarkDatabase* bdb,
                            PlanEnumerator::Options options,
                            OracleTally* tally) {
  PlanEnumerator production(bdb->db(), bdb->stats(), options);
  testing_ref::ReferenceEnumerator reference(bdb->db(), bdb->stats(),
                                             options);
  const OptimizerCostModel cost_model(bdb->db());
  CandidateGenerator candidates(bdb->db(), bdb->stats());
  for (const QuerySpec& q : bdb->queries()) {
    Configuration current = bdb->initial_config();
    auto check = [&](const Configuration& config) {
      const auto got = production.Optimize(q, config);
      const auto want = reference.Optimize(q, config);
      EXPECT_EQ(got->ContentHash(), want->ContentHash())
          << bdb->name() << " " << q.name << " under "
          << config.Fingerprint();
      EXPECT_EQ(Bits(got->est_total_cost), Bits(want->est_total_cost))
          << bdb->name() << " " << q.name;
      const auto copy = got->Clone();
      cost_model.Annotate(copy.get());
      EXPECT_EQ(EstBits(*copy), EstBits(*got)) << bdb->name() << " " << q.name;
      ++tally->plans;
      if (q.tables.size() >= 3) ++tally->multi_table_plans;
      if (got->degree_of_parallelism > 1) ++tally->parallel_plans;
      got->root->Visit([tally](const PlanNode& n) { tally->ops.insert(n.op); });
      return got->est_total_cost;
    };
    check(current);
    const std::vector<IndexDef> cands = candidates.Generate(q, current);
    for (int round = 0; round < 3; ++round) {
      const IndexDef* adopt = nullptr;
      double adopt_cost = 0;
      for (const IndexDef& idx : cands) {
        if (current.Contains(idx.CanonicalName())) continue;
        Configuration next = current;
        next.Add(idx);
        const double cost = check(next);
        if (adopt == nullptr || cost < adopt_cost) {
          adopt = &idx;
          adopt_cost = cost;
        }
      }
      if (adopt == nullptr) break;
      current.Add(*adopt);
    }
  }
}

/// Runs the oracle at default options, with greedy join ordering beyond
/// two tables (max_dp_tables = 2, which no other test reaches), and with
/// the parallel alternative costed for every plan (these small databases
/// rarely cross the default threshold). `expect_parallel`: some plan must
/// win with parallelism then (at tiny scales the startup cost never pays).
void ExpectMatchesReferenceAllSearches(BenchmarkDatabase* bdb,
                                       bool expect_parallel) {
  OracleTally dp;
  ExpectMatchesReference(bdb, PlanEnumerator::Options(), &dp);
  EXPECT_GT(dp.plans, 0);
  EXPECT_TRUE(dp.ops.count(PhysOp::kHashJoin) > 0) << bdb->name();
  EXPECT_TRUE(dp.ops.count(PhysOp::kNestedLoopJoin) > 0) << bdb->name();

  PlanEnumerator::Options greedy_options;
  greedy_options.max_dp_tables = 2;
  OracleTally greedy;
  ExpectMatchesReference(bdb, greedy_options, &greedy);
  EXPECT_EQ(greedy.plans, dp.plans);
  EXPECT_GT(greedy.multi_table_plans, 0) << "greedy path not reached";

  PlanEnumerator::Options parallel_options;
  parallel_options.parallel_cost_threshold = 0;
  OracleTally parallel;
  ExpectMatchesReference(bdb, parallel_options, &parallel);
  EXPECT_EQ(parallel.parallel_plans > 0, expect_parallel) << bdb->name();
}

TEST(PlanEnumeratorOracleTest, TpchMatchesReference) {
  auto bdb = BuildTpchLike("oracle_h", 1, 0.9, 31);
  ExpectMatchesReferenceAllSearches(bdb.get(), /*expect_parallel=*/true);
}

TEST(PlanEnumeratorOracleTest, TpcdsMatchesReference) {
  // Columnstore fact tables put batch-mode inputs under the joins.
  auto bdb = BuildTpcdsLike("oracle_ds", 1, 0.8, true, 32);
  ExpectMatchesReferenceAllSearches(bdb.get(), /*expect_parallel=*/false);
}

TEST(PlanEnumeratorOracleTest, CustomerMatchesReference) {
  auto bdb = BuildCustomer("oracle_c", CustomerProfileFor(4), 33);
  ExpectMatchesReferenceAllSearches(bdb.get(), /*expect_parallel=*/true);
}

TEST(PlanEnumeratorOracleTest, TpchSfMatchesReference) {
  TpchSfOptions options;
  options.sf = 0.002;
  options.seed = 34;
  auto bdb = BuildTpchSf("oracle_sf", options);
  ExpectMatchesReferenceAllSearches(bdb.get(), /*expect_parallel=*/true);
}

}  // namespace
}  // namespace aimai

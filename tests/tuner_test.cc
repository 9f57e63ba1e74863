// Unit tests for tuner/: candidate generation, comparators, query-level
// and workload-level search invariants, continuous tuning with reverts.

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"
#include "models/classifier_model.h"
#include "models/repository.h"
#include "tuner/candidates.h"
#include "tuner/comparator.h"
#include "tuner/continuous_tuner.h"
#include "tuner/query_tuner.h"
#include "tuner/workload_tuner.h"
#include "workloads/collection.h"
#include "workloads/query_helpers.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

using workload_internal::Col;
using workload_internal::Join;
using workload_internal::PredBetween;
using workload_internal::PredEq;

class TunerTest : public ::testing::Test {
 protected:
  void SetUp() override { bdb_ = BuildTpchLike("tuner_t", 1, 0.9, 61); }
  std::unique_ptr<BenchmarkDatabase> bdb_;
};

TEST_F(TunerTest, CandidatesCoverPredicateJoinGroupColumns) {
  const Database& d = *bdb_->db();
  const int ord = d.FindTable("orders");
  const int li = d.FindTable("lineitem");
  QuerySpec q;
  q.tables = {ord, li};
  q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(1)),
                  PredBetween(li, Col(d, li, "l_shipdate"), Value::Int(0),
                              Value::Int(100))};
  q.joins = {Join(ord, Col(d, ord, "o_orderkey"), li,
                  Col(d, li, "l_orderkey"))};
  q.group_by = {ColumnRef{li, Col(d, li, "l_shipmode")}};
  q.aggregates = {{AggFunc::kCount, ColumnRef{}}};

  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  const std::vector<IndexDef> cands = gen.Generate(q, {});
  EXPECT_FALSE(cands.empty());

  auto has_leading = [&cands](int table, int col) {
    for (const IndexDef& def : cands) {
      if (def.table_id == table && !def.key_columns.empty() &&
          def.key_columns[0] == col) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_leading(ord, Col(d, ord, "o_custkey")));
  EXPECT_TRUE(has_leading(ord, Col(d, ord, "o_orderkey")));
  EXPECT_TRUE(has_leading(li, Col(d, li, "l_shipdate")));
  EXPECT_TRUE(has_leading(li, Col(d, li, "l_orderkey")));
  EXPECT_TRUE(has_leading(li, Col(d, li, "l_shipmode")));

  // No duplicates; nothing already in the existing configuration.
  std::set<std::string> names;
  for (const IndexDef& def : cands) {
    EXPECT_TRUE(names.insert(def.CanonicalName()).second);
  }
  Configuration existing;
  existing.Add(cands[0]);
  const std::vector<IndexDef> filtered = gen.Generate(q, existing);
  for (const IndexDef& def : filtered) {
    EXPECT_NE(def.CanonicalName(), cands[0].CanonicalName());
  }
}

TEST_F(TunerTest, CandidateCapsRespected) {
  CandidateGenerator::Options o;
  o.max_per_table = 2;
  o.max_per_query = 3;
  CandidateGenerator gen(bdb_->db(), bdb_->stats(), o);
  for (const QuerySpec& q : bdb_->queries()) {
    EXPECT_LE(gen.Generate(q, {}).size(), 3u);
  }
}

TEST(ComparatorTest, OptimizerComparatorThresholds) {
  PhysicalPlan p1, p2;
  p1.est_total_cost = 100;
  p2.est_total_cost = 90;
  OptimizerComparator plain(0.0, 0.2);
  EXPECT_TRUE(plain.IsImprovement(p1, p2));
  EXPECT_FALSE(plain.IsRegression(p1, p2));
  OptimizerComparator strict(0.2, 0.2);  // OptTr: needs >= 20% improvement.
  EXPECT_FALSE(strict.IsImprovement(p1, p2));
  p2.est_total_cost = 70;
  EXPECT_TRUE(strict.IsImprovement(p1, p2));
  p2.est_total_cost = 125;
  EXPECT_TRUE(plain.IsRegression(p1, p2));
  p2.est_total_cost = 115;
  EXPECT_FALSE(plain.IsRegression(p1, p2));  // Within the 20% band.
}

TEST(ComparatorTest, ModelComparatorUnsureFallsBackToOptimizer) {
  PhysicalPlan p1, p2;
  p1.root = std::make_unique<PlanNode>();
  p2.root = std::make_unique<PlanNode>();
  p1.est_total_cost = 100;
  p2.est_total_cost = 90;

  auto make = [](int label) {
    return ModelComparator(
        PairFeaturizer({Channel::kEstNodeCost},
                       PairCombine::kPairDiffNormalized),
        [label](const std::vector<double>&) { return label; });
  };
  const ModelComparator says_regress = make(kRegression);
  EXPECT_TRUE(says_regress.IsRegression(p1, p2));
  EXPECT_FALSE(says_regress.IsImprovement(p1, p2));

  const ModelComparator says_improve = make(kImprovement);
  EXPECT_FALSE(says_improve.IsRegression(p1, p2));
  EXPECT_TRUE(says_improve.IsImprovement(p1, p2));

  const ModelComparator says_unsure = make(kUnsure);
  EXPECT_FALSE(says_unsure.IsRegression(p1, p2));
  // Unsure + optimizer estimates cheaper => improvement (fallback).
  EXPECT_TRUE(says_unsure.IsImprovement(p1, p2));
  p2.est_total_cost = 105;
  EXPECT_FALSE(says_unsure.IsImprovement(p1, p2));
}

TEST_F(TunerTest, QueryTunerOnlyImprovesEstimates) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  QueryLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen);
  OptimizerComparator cmp(0.0, 0.2);
  int queries_with_indexes = 0;
  for (const QuerySpec& q : bdb_->queries()) {
    const QueryTuningResult r = tuner.Tune(q, {}, cmp);
    ASSERT_NE(r.base_plan, nullptr);
    ASSERT_NE(r.final_plan, nullptr);
    EXPECT_LE(r.final_plan->est_total_cost,
              r.base_plan->est_total_cost + 1e-9);
    EXPECT_EQ(r.recommended.size(), r.new_indexes.size());
    if (!r.new_indexes.empty()) ++queries_with_indexes;
    EXPECT_LE(r.new_indexes.size(), 5u);
  }
  EXPECT_GT(queries_with_indexes, 5);
}

TEST_F(TunerTest, QueryTunerRespectsStorageBudget) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  QueryLevelTuner::Options o;
  o.storage_budget_bytes = 1;  // Nothing fits.
  QueryLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen, o);
  OptimizerComparator cmp(0.0, 0.2);
  const QueryTuningResult r = tuner.Tune(bdb_->queries()[0], {}, cmp);
  EXPECT_TRUE(r.new_indexes.empty());
}

TEST_F(TunerTest, QueryTunerRespectsIndexCap) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  QueryLevelTuner::Options o;
  o.max_new_indexes = 1;
  QueryLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen, o);
  OptimizerComparator cmp(0.0, 0.2);
  for (const QuerySpec& q : bdb_->queries()) {
    EXPECT_LE(tuner.Tune(q, {}, cmp).new_indexes.size(), 1u);
  }
}

TEST_F(TunerTest, WorkloadTunerEnforcesPerQueryNoRegression) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  WorkloadLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen);
  OptimizerComparator cmp(0.0, 0.2);
  std::vector<WorkloadQuery> wl;
  for (size_t i = 0; i < 5; ++i) {
    wl.push_back(WorkloadQuery{bdb_->queries()[i], 1.0});
  }
  const WorkloadTuningResult r = tuner.Tune(wl, {}, cmp);
  EXPECT_LE(r.final_est_cost, r.base_est_cost + 1e-9);
  ASSERT_EQ(r.final_plans.size(), wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    // No query's estimated cost exceeds its base by the threshold.
    EXPECT_FALSE(cmp.IsRegression(*r.base_plans[i], *r.final_plans[i]));
  }
}

TEST_F(TunerTest, ContinuousTunerRevertKeepsCostBounded) {
  TuningEnv env = bdb_->MakeEnv(0);
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  ContinuousTuner::Options o;
  o.iterations = 4;
  o.max_indexes_per_iteration = 2;
  ContinuousTuner tuner(&env, &gen, o);
  ExecutionDataRepository repo;
  auto factory = []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };
  int adapt_calls = 0;
  for (size_t qi = 0; qi < 5; ++qi) {
    const auto trace =
        tuner.TuneQuery(bdb_->queries()[qi], {}, factory, &repo,
                        [&adapt_calls]() { ++adapt_calls; });
    // After reverts, final cost never exceeds initial by more than the
    // threshold plus measurement noise.
    EXPECT_LE(trace.final_cost, trace.initial_cost * 1.5);
    for (const auto& ir : trace.iterations) {
      EXPECT_GE(ir.iteration, 1);
      EXPECT_LE(ir.iteration, 4);
      EXPECT_GT(ir.measured_cost, 0);
    }
  }
  EXPECT_GT(repo.num_plans(), 5u);  // Passive collection happened.
  EXPECT_GT(adapt_calls, 0);        // Hook invoked per iteration.
}

TEST_F(TunerTest, ContinuousWorkloadTuningProducesTrace) {
  TuningEnv env = bdb_->MakeEnv(0);
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  ContinuousTuner::Options o;
  o.iterations = 2;
  ContinuousTuner tuner(&env, &gen, o);
  std::vector<WorkloadQuery> wl;
  for (size_t i = 2; i < 6; ++i) {
    wl.push_back(WorkloadQuery{bdb_->queries()[i], 1.0});
  }
  auto factory = []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };
  const auto trace = tuner.TuneWorkload(wl, {}, factory, nullptr, nullptr);
  EXPECT_GT(trace.initial_cost, 0);
  EXPECT_GT(trace.final_cost, 0);
  EXPECT_LE(trace.final_cost, trace.initial_cost * 1.5);
}

// ---------------------------------------------------------------------------
// The learned comparator labels a pair only when a tuner asks about it.

using PairKey = std::pair<uint64_t, uint64_t>;

/// Thread-safe set of ordered plan pairs (by ContentHash), plus the
/// number of times a pair was added.
class PairSet {
 public:
  void Add(const PhysicalPlan& p1, const PhysicalPlan& p2) {
    Add(p1.ContentHash(), p2.ContentHash());
  }
  void Add(uint64_t h1, uint64_t h2) {
    std::lock_guard<std::mutex> lock(mu_);
    pairs_.insert({h1, h2});
    ++adds_;
  }
  std::set<PairKey> pairs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pairs_;
  }
  size_t adds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return adds_;
  }

 private:
  mutable std::mutex mu_;
  std::set<PairKey> pairs_;
  size_t adds_ = 0;
};

/// Forwards every question to `inner` and records the pair asked.
class AskedPairsComparator : public CostComparator {
 public:
  explicit AskedPairsComparator(const CostComparator* inner) : inner_(inner) {}
  bool IsRegression(const PhysicalPlan& p1,
                    const PhysicalPlan& p2) const override {
    asked.Add(p1, p2);
    return inner_->IsRegression(p1, p2);
  }
  bool IsImprovement(const PhysicalPlan& p1,
                     const PhysicalPlan& p2) const override {
    asked.Add(p1, p2);
    return inner_->IsImprovement(p1, p2);
  }
  mutable PairSet asked;

 private:
  const CostComparator* inner_;
};

class SinkPairs : public ComparatorDecisionSink {
 public:
  void OnDecision(uint64_t h1, uint64_t h2, int label) override {
    (void)label;
    decided.Add(h1, h2);
  }
  PairSet decided;
};

// Runs each tuner twice on the same what-if optimizer: once through a
// recorder over the scalar ModelComparator (the pairs the search asks
// about), once with a ClassifierComparator handed to the tuner directly.
// The comparator's decision sink must see exactly the asked pairs, each
// once — no pair is labeled ahead of the question.
TEST_F(TunerTest, ClassifierComparatorDecidesExactlyTheAskedPairs) {
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 4;
  copts.seed = 62;
  CollectExecutionData(bdb_.get(), 0, copts, &repo);
  Rng rng(63);
  PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized);
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  auto trained = MakeClassifier(ModelKind::kRandomForest, fz, 64);
  trained->Fit(builder.Build(repo.MakePairs(40, &rng)));
  const std::shared_ptr<const Classifier> model = std::move(trained);
  const ModelComparator scalar(fz, [&](const std::vector<double>& x) {
    return model->Predict(x.data());
  });

  ThreadPool pool(4);
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  std::vector<WorkloadQuery> wl;
  for (size_t i = 0; i < 6; ++i) {
    wl.push_back(WorkloadQuery{bdb_->queries()[i], 1.0});
  }

  const auto expect_decided_as_asked = [&](const auto& tune) {
    AskedPairsComparator recorder(&scalar);
    const std::string want = tune(recorder);
    SinkPairs sink;
    ClassifierComparator memoized(model, fz);
    memoized.set_decision_sink(&sink);
    EXPECT_EQ(tune(memoized), want);
    EXPECT_FALSE(recorder.asked.pairs().empty());
    EXPECT_EQ(sink.decided.pairs(), recorder.asked.pairs());
    EXPECT_EQ(sink.decided.adds(), sink.decided.pairs().size());
  };

  QueryLevelTuner::Options qopts;
  qopts.pool = &pool;
  QueryLevelTuner qtuner(bdb_->db(), bdb_->what_if(), &gen, qopts);
  expect_decided_as_asked([&](const CostComparator& cmp) {
    std::string out;
    for (const WorkloadQuery& wq : wl) {
      out += qtuner.Tune(wq.query, {}, cmp).recommended.Fingerprint() + ";";
    }
    return out;
  });

  WorkloadLevelTuner::Options wopts;
  wopts.pool = &pool;
  WorkloadLevelTuner wtuner(bdb_->db(), bdb_->what_if(), &gen, wopts);
  expect_decided_as_asked([&](const CostComparator& cmp) {
    return wtuner.Tune(wl, {}, cmp).recommended.Fingerprint();
  });
}

}  // namespace
}  // namespace aimai

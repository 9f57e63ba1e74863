#include "harness.h"

#include <cstdio>
#include <cstdlib>

#include <map>
#include <set>

#include "common/check.h"
#include "common/stats.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace aimai::bench {

HarnessOptions HarnessOptions::FromEnv() {
  HarnessOptions o;
  const char* metrics = std::getenv("AIMAI_METRICS");
  if (metrics != nullptr && metrics[0] == '1') {
    // Dump the metrics snapshot when the benchmark binary exits, so any
    // bench can be profiled without code changes.
    std::atexit([] { std::fprintf(stderr, "%s", obs::TextSnapshot().c_str()); });
  }
  const char* full = std::getenv("AIMAI_FULL");
  if (full != nullptr && full[0] == '1') {
    o.full = true;
    o.scale_divisor = 1;
    o.configs_per_query = 12;
    o.max_pairs_per_query = 80;
    o.repeats_random = 5;
    o.repeats_query = 10;
  }
  const char* quick = std::getenv("AIMAI_QUICK");
  if (quick != nullptr && quick[0] == '1') {
    o.scale_divisor = 3;
    o.configs_per_query = 6;
    o.max_pairs_per_query = 40;
    o.repeats_random = 1;
    o.repeats_query = 1;
  }
  const char* seed = std::getenv("AIMAI_SEED");
  if (seed != nullptr) {
    o.seed = static_cast<uint64_t>(std::strtoull(seed, nullptr, 10));
  }
  return o;
}

std::vector<int> SuiteData::QueryGroups() const {
  std::vector<int> out;
  out.reserve(pairs.size());
  for (const PlanPairRef& p : pairs) out.push_back(repo.QueryGroupOf(p.a));
  return out;
}

std::vector<int> SuiteData::DatabaseGroups() const {
  std::vector<int> out;
  out.reserve(pairs.size());
  for (const PlanPairRef& p : pairs) {
    out.push_back(repo.DatabaseGroupOf(p.a));
  }
  return out;
}

std::vector<std::pair<int, int>> SuiteData::PlanGroups() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(pairs.size());
  for (const PlanPairRef& p : pairs) out.emplace_back(p.a, p.b);
  return out;
}

SuiteData BuildAndCollect(const HarnessOptions& options) {
  AIMAI_SPAN("bench.build_and_collect");
  SuiteData data;
  std::fprintf(stderr, "[harness] building %s suite (seed=%llu)...\n",
               options.full ? "full" : "reduced",
               static_cast<unsigned long long>(options.seed));
  {
    AIMAI_SPAN("bench.build_suite");
    data.suite = BuildBenchmarkSuite(options.seed, options.scale_divisor);
  }
  CollectionOptions copts;
  copts.configs_per_query = options.configs_per_query;
  copts.seed = options.seed ^ 0xc0111ec7;
  std::fprintf(stderr, "[harness] collecting execution data over %zu dbs...\n",
               data.suite.size());
  {
    AIMAI_SPAN("bench.collect_suite");
    CollectSuite(&data.suite, copts, &data.repo);
  }
  Rng rng(options.seed ^ 0x9a175);
  data.pairs = data.repo.MakePairs(options.max_pairs_per_query, &rng);
  std::fprintf(stderr, "[harness] %zu plans, %zu pairs\n",
               data.repo.num_plans(), data.pairs.size());
  return data;
}

std::vector<Channel> DefaultChannels() {
  return {Channel::kEstNodeCost, Channel::kLeafBytesWeighted};
}

PairFeaturizer DefaultFeaturizer() {
  return PairFeaturizer(DefaultChannels(), PairCombine::kPairDiffNormalized);
}

ConfusionMatrix EvaluatePredictor(const SuiteData& data,
                                  const std::vector<size_t>& test_pair_idx,
                                  const PairLabelPredictor& predictor,
                                  const PairLabeler& labeler) {
  ConfusionMatrix cm(kNumPairLabels);
  for (size_t i : test_pair_idx) {
    const PlanPairRef& p = data.pairs[i];
    const ExecutedPlan& a = data.repo.plan(p.a);
    const ExecutedPlan& b = data.repo.plan(p.b);
    const int truth = labeler.Label(a.exec_cost, b.exec_cost);
    cm.Add(truth, predictor.PredictPairLabel(a, b));
  }
  return cm;
}

std::unique_ptr<Classifier> TrainClassifier(
    ModelKind kind, const SuiteData& data,
    const std::vector<size_t>& train_pair_idx,
    const PairFeaturizer& featurizer, const PairLabeler& labeler,
    uint64_t seed) {
  PairDatasetBuilder builder(&data.repo, featurizer, labeler);
  std::vector<PlanPairRef> train_pairs;
  train_pairs.reserve(train_pair_idx.size());
  for (size_t i : train_pair_idx) train_pairs.push_back(data.pairs[i]);
  Dataset train = builder.Build(train_pairs);
  std::unique_ptr<Classifier> model = MakeClassifier(kind, featurizer, seed);
  model->Fit(train);
  return model;
}

SplitIndices HoldoutWithLeak(const SuiteData& data, int held_db, int leak_k,
                             Rng* rng) {
  // Choose the leaked plans: up to leak_k per query group of the held db.
  std::map<int, std::vector<int>> held_plans_by_group;
  for (int pid : data.repo.PlansOfDatabase(held_db)) {
    held_plans_by_group[data.repo.QueryGroupOf(pid)].push_back(pid);
  }
  std::set<int> leaked;
  for (auto& [group, plans] : held_plans_by_group) {
    rng->Shuffle(&plans);
    for (size_t i = 0;
         i < plans.size() && i < static_cast<size_t>(leak_k); ++i) {
      leaked.insert(plans[i]);
    }
  }

  SplitIndices out;
  for (size_t i = 0; i < data.pairs.size(); ++i) {
    const PlanPairRef& p = data.pairs[i];
    if (data.repo.DatabaseGroupOf(p.a) != held_db) {
      out.train.push_back(i);
      continue;
    }
    const bool la = leaked.count(p.a) > 0;
    const bool lb = leaked.count(p.b) > 0;
    if (la && lb) {
      out.train.push_back(i);
    } else if (!la && !lb) {
      out.test.push_back(i);
    }
    // Mixed pairs are dropped.
  }
  return out;
}

double RegressionF1(const ConfusionMatrix& cm) {
  return cm.ForClass(kRegression).f1;
}

void PrintTable(const std::string& caption,
                const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n%s\n%s", caption.c_str(), RenderTable(rows).c_str());
  std::fflush(stdout);
}

std::string F3(double v) { return StrFormat("%.3f", v); }

PairedOverhead MeasurePairedOverhead(int pairs,
                                     const std::function<double(bool)>& pass) {
  AIMAI_CHECK(pairs > 0);
  PairedOverhead out;
  std::vector<double> ratios;
  for (int r = 0; r < pairs; ++r) {
    const double base1 = pass(false);
    const double inst1 = pass(true);
    const double inst2 = pass(true);
    const double base2 = pass(false);
    out.base_ms.push_back((base1 + base2) / 2);
    out.instrumented_ms.push_back((inst1 + inst2) / 2);
    ratios.push_back((inst1 + inst2) / (base1 + base2));
  }
  out.median_ratio = Median(std::move(ratios));
  return out;
}

}  // namespace aimai::bench

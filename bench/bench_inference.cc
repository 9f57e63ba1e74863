// Inference fast path: ns/row for every classifier family along two
// paths — the legacy node-chasing / allocating scalar path and the
// zero-allocation compiled primitive (PredictProbaInto). Bit-identity
// between the paths is verified on the fly; diverging outputs fail the
// run (nonzero exit).
//
// Emits machine-readable results to BENCH_inference.json (ns/row per
// model and path) in the working directory.
//
// Knobs: AIMAI_QUICK=1 shrinks the row set and repeats; AIMAI_SEED=<n>.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/logistic_regression.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "robustness/atomic_file.h"
#include "workloads/tpch_like.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

struct PathTimes {
  std::string name;
  double scalar_ns = 0;       // Legacy path (node-chasing / allocating).
  double fast_scalar_ns = 0;  // PredictProbaInto, zero-alloc.
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One wall-time measurement of `fn` over all `rows`, in ns/row.
template <typename Fn>
double OneNsPerRow(size_t rows, const Fn& fn) {
  const double t0 = NowMs();
  fn();
  return (NowMs() - t0) * 1e6 / static_cast<double>(rows);
}

/// Times the two inference paths for one model and checks them for
/// bit-identity — the compiled path's contract, not closeness. `legacy`
/// returns the pre-compilation result for one row (node-chasing scalar
/// for the tree ensembles, the allocating wrapper for LR / the DNN).
template <typename LegacyFn>
PathTimes TimeModel(const std::string& name, const Classifier& model,
                    const std::vector<double>& rows, size_t n, size_t dim,
                    int repeats, const LegacyFn& legacy, bool* identical) {
  PathTimes t;
  t.name = name;
  const size_t k = static_cast<size_t>(model.num_classes());
  std::vector<double> out(n * k);

  // Both paths are measured back-to-back within each round (and the best
  // round wins) so a noisy-neighbour burst on a shared machine hits both
  // of them, not just whichever path happened to run during it.
  for (int rep = 0; rep < repeats; ++rep) {
    const double scalar = OneNsPerRow(n, [&] {
      for (size_t i = 0; i < n; ++i) legacy(rows.data() + i * dim);
    });
    const double fast_scalar = OneNsPerRow(n, [&] {
      for (size_t i = 0; i < n; ++i) {
        model.PredictProbaInto(rows.data() + i * dim, out.data() + i * k);
      }
    });
    if (rep == 0 || scalar < t.scalar_ns) t.scalar_ns = scalar;
    if (rep == 0 || fast_scalar < t.fast_scalar_ns) {
      t.fast_scalar_ns = fast_scalar;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> want = legacy(rows.data() + i * dim);
    if (!std::equal(want.begin(), want.end(), out.begin() + i * k)) {
      *identical = false;
      break;
    }
  }
  return t;
}

void WriteJson(const std::vector<PathTimes>& times, size_t num_rows) {
  std::string json =
      StrFormat("{\n  \"rows\": %zu,\n  \"models\": {\n", num_rows);
  for (size_t i = 0; i < times.size(); ++i) {
    const PathTimes& t = times[i];
    json += StrFormat(
        "    \"%s\": {\"scalar_ns_per_row\": %.1f, "
        "\"fast_scalar_ns_per_row\": %.1f}%s\n",
        t.name.c_str(), t.scalar_ns, t.fast_scalar_ns,
        i + 1 < times.size() ? "," : "");
  }
  json += "  }\n}\n";
  // Atomic replace: a crash (or a concurrent reader) never sees a torn
  // results file — it holds the previous run or the complete new one.
  const Status wrote = WriteFileAtomic("BENCH_inference.json", json);
  if (!wrote.ok()) {
    std::fprintf(stderr, "warning: %s\n", wrote.ToString().c_str());
  }
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const bool quick = opts.scale_divisor > 2;
  const size_t kRows = quick ? 1024 : 4096;
  const int repeats = opts.full ? 7 : (quick ? 3 : 5);

  // Training data: execution pairs from one TPC-H-like database, exactly
  // the features the tuner's comparator sees.
  auto bdb = BuildTpchLike("inf_bench", 2, 0.9, opts.seed);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 6;
  copts.seed = opts.seed + 1;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  Rng rng(opts.seed + 2);
  const auto pairs = repo.MakePairs(40, &rng);
  const PairFeaturizer featurizer = DefaultFeaturizer();
  PairDatasetBuilder builder(&repo, featurizer, PairLabeler(0.2));
  const Dataset data = builder.Build(pairs);
  const size_t dim = data.d();
  std::fprintf(stderr, "training on %zu pairs, %zu features\n", data.n(),
               dim);

  // The inference rows: dataset rows cycled up to kRows.
  std::vector<double> rows(kRows * dim);
  for (size_t i = 0; i < kRows; ++i) {
    const double* src = data.Row(i % data.n());
    std::copy(src, src + dim, rows.begin() + static_cast<long>(i * dim));
  }

  // Model families with the hyper-parameters MakeClassifier ships
  // (concrete types: the legacy scalar entry points live on them).
  LogisticRegression::Options lro;
  lro.seed = opts.seed;
  LogisticRegression lr(lro);
  lr.Fit(data);
  RandomForest::Options rfo;
  rfo.num_trees = 80;
  rfo.seed = opts.seed;
  RandomForest rf(rfo);
  rf.Fit(data);
  GradientBoostedTrees::Options gbto;
  gbto.seed = opts.seed;
  GradientBoostedTrees gbt(gbto);
  gbt.Fit(data);
  HistGradientBoosting::Options lgo;
  lgo.seed = opts.seed;
  HistGradientBoosting lgbm(lgo);
  lgbm.Fit(data);
  NeuralNetClassifier::Options nno;
  nno.architecture = NeuralNetClassifier::Architecture::kPartialSkip;
  nno.groups = GroupsForFeaturizer(featurizer);
  nno.seed = opts.seed;
  if (quick) nno.epochs = 10;
  NeuralNetClassifier dnn(nno);
  dnn.Fit(data);

  bool identical = true;
  std::vector<PathTimes> times;
  times.push_back(TimeModel(
      "LR", lr, rows, kRows, dim, repeats,
      [&](const double* x) { return lr.PredictProba(x); }, &identical));
  times.push_back(TimeModel(
      "RF", rf, rows, kRows, dim, repeats,
      [&](const double* x) { return rf.PredictProbaScalar(x); }, &identical));
  times.push_back(TimeModel(
      "GBT", gbt, rows, kRows, dim, repeats,
      [&](const double* x) { return gbt.PredictProbaScalar(x); },
      &identical));
  times.push_back(TimeModel(
      "LGBM", lgbm, rows, kRows, dim, repeats,
      [&](const double* x) { return lgbm.PredictProbaScalar(x); },
      &identical));
  times.push_back(TimeModel(
      "DNN", dnn, rows, kRows, dim, repeats,
      [&](const double* x) { return dnn.PredictProba(x); }, &identical));

  std::vector<std::vector<std::string>> t1;
  t1.push_back({"model", "scalar ns/row", "zero-alloc ns/row"});
  for (const PathTimes& t : times) {
    t1.push_back({t.name, F3(t.scalar_ns), F3(t.fast_scalar_ns)});
  }
  PrintTable(StrFormat("Single-row inference (%zu rows, best of %d)", kRows,
                       repeats),
             t1);

  WriteJson(times, kRows);

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: compiled probabilities diverged from the legacy "
                 "scalar path\n");
    return 1;
  }
  return 0;
}

// TPC-H scale-factor sweep: generation cost and tuning payoff as the
// database grows. For each SF the bench (1) builds the tpch_sf database
// twice serially and once over a 4-thread pool, cross-checking per-table
// ContentFingerprints — same seed must mean bit-identical data, parallel
// included — and reporting generation wall time; (2) runs one
// query-level tuning round per query (every template family), reporting
// tuning wall time, the optimizer-estimated workload-cost improvement,
// and the measured (executed) improvement of the recommended
// configuration; (3) collects execution data, trains the paper's
// random-forest pair classifier on half the pairs, and reports its
// regression-class F1 against the optimizer baseline on the other half.
//
// Emits machine-readable results to BENCH_tpch_scale.json (atomic
// write). Exits non-zero when any determinism cross-check fails.
//
// Knobs: AIMAI_QUICK=1 sweeps SF 0.01 only; the default sweeps
// {0.01, 0.05, 0.1}; AIMAI_FULL=1 adds 0.3. AIMAI_SEED=<n> reseeds.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "robustness/atomic_file.h"
#include "tuner/query_tuner.h"
#include "workloads/tpch_sf.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-table fingerprints, keyed by table order (stable across builds).
std::vector<uint64_t> Fingerprints(BenchmarkDatabase* bdb) {
  std::vector<uint64_t> fps;
  for (int t = 0; t < bdb->db()->num_tables(); ++t) {
    fps.push_back(bdb->db()->table(t).ContentFingerprint());
  }
  return fps;
}

struct SfResult {
  double sf = 0;
  size_t lineitem_rows = 0;
  double gen_serial_ms = 0;
  double gen_parallel_ms = 0;
  bool reproducible = false;   // Serial rebuild, same seed -> same data.
  bool parallel_identical = false;  // Pooled build == serial build.
  double tune_ms = 0;
  int queries = 0;
  int improved = 0;
  double est_improvement_pct = 0;
  double measured_improvement_pct = 0;
  double model_f1 = 0;
  double optimizer_f1 = 0;
};

SfResult RunOne(double sf, uint64_t seed, bool quick) {
  SfResult r;
  r.sf = sf;
  r.lineitem_rows = TpchSfRows(sf, kTpchSfLineitemBase);

  TpchSfOptions opts;
  opts.sf = sf;
  opts.seed = seed;
  opts.pool = nullptr;

  double t0 = NowMs();
  auto serial = BuildTpchSf("tpch_sf_bench", opts);
  r.gen_serial_ms = NowMs() - t0;
  const std::vector<uint64_t> fp_serial = Fingerprints(serial.get());

  auto serial2 = BuildTpchSf("tpch_sf_bench", opts);
  r.reproducible = Fingerprints(serial2.get()) == fp_serial;
  serial2.reset();

  ThreadPool pool(4);
  opts.pool = &pool;
  t0 = NowMs();
  auto parallel = BuildTpchSf("tpch_sf_bench", opts);
  r.gen_parallel_ms = NowMs() - t0;
  r.parallel_identical = Fingerprints(parallel.get()) == fp_serial;
  parallel.reset();

  // One tuning round per query: greedy what-if search under the plain
  // optimizer comparator, then implement-and-execute base vs recommended
  // to get the measured improvement the estimates promised.
  BenchmarkDatabase* bdb = serial.get();
  CandidateGenerator candidates(bdb->db(), bdb->stats());
  QueryLevelTuner tuner(bdb->db(), bdb->what_if(), &candidates);
  OptimizerComparator comparator(0.0, /*regression_threshold=*/1e9);
  TuningEnv env = bdb->MakeEnv(0);
  env.cost_samples = quick ? 3 : 5;
  const Configuration& base = bdb->initial_config();

  double est_base = 0, est_final = 0;
  double measured_base = 0, measured_final = 0;
  t0 = NowMs();
  std::vector<QueryTuningResult> recs;
  for (const QuerySpec& q : bdb->queries()) {
    recs.push_back(tuner.Tune(q, base, comparator));
  }
  r.tune_ms = NowMs() - t0;
  for (size_t i = 0; i < recs.size(); ++i) {
    const QuerySpec& q = bdb->queries()[i];
    const QueryTuningResult& rec = recs[i];
    est_base += rec.base_plan->est_total_cost;
    est_final += rec.final_plan->est_total_cost;
    if (!rec.new_indexes.empty()) ++r.improved;
    measured_base += env.ExecuteAndMeasure(q, base).median_cost;
    measured_final += env.ExecuteAndMeasure(q, rec.recommended).median_cost;
  }
  r.queries = static_cast<int>(recs.size());
  r.est_improvement_pct =
      est_base > 0 ? 100.0 * (est_base - est_final) / est_base : 0;
  r.measured_improvement_pct =
      measured_base > 0
          ? 100.0 * (measured_base - measured_final) / measured_base
          : 0;

  // Comparator quality at this scale: collect execution data, train the
  // pair classifier on even pairs, score regression-class F1 on odd pairs
  // against the optimizer's estimate-ordering baseline.
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = quick ? 2 : 3;
  copts.cost_samples = quick ? 3 : 5;
  copts.seed = seed + 17;
  CollectExecutionData(bdb, 0, copts, &repo);
  Rng rng(seed + 23);
  const std::vector<PlanPairRef> pairs = repo.MakePairs(40, &rng);
  const PairFeaturizer fz = DefaultFeaturizer();
  const PairLabeler labeler(0.2);
  PairDatasetBuilder builder(&repo, fz, labeler);
  std::vector<PlanPairRef> train_pairs, test_pairs;
  for (size_t i = 0; i < pairs.size(); ++i) {
    (i % 2 == 0 ? train_pairs : test_pairs).push_back(pairs[i]);
  }
  auto model = MakeClassifier(ModelKind::kRandomForest, fz, seed + 29);
  model->Fit(builder.Build(train_pairs));
  ConfusionMatrix cm(3), cm_opt(3);
  for (const PlanPairRef& p : test_pairs) {
    const ExecutedPlan& a = repo.plan(p.a);
    const ExecutedPlan& b = repo.plan(p.b);
    const int truth = labeler.Label(a.exec_cost, b.exec_cost);
    cm.Add(truth, model->Predict(builder.Features(p).data()));
    cm_opt.Add(truth, labeler.Label(a.est_cost, b.est_cost));
  }
  r.model_f1 = RegressionF1(cm);
  r.optimizer_f1 = RegressionF1(cm_opt);
  return r;
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  // AIMAI_QUICK sets scale_divisor 3 (default 2, AIMAI_FULL 1).
  const bool quick = !opts.full && opts.scale_divisor >= 3;

  std::vector<double> sfs;
  if (quick) {
    sfs = {0.01};
  } else if (opts.full) {
    sfs = {0.01, 0.05, 0.1, 0.3};
  } else {
    sfs = {0.01, 0.05, 0.1};
  }

  std::vector<SfResult> results;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"sf", "lineitem", "gen_ser_ms", "gen_par_ms", "tune_ms",
                  "est_impr%", "meas_impr%", "model_f1", "opt_f1",
                  "determinism"});
  bool deterministic = true;
  for (double sf : sfs) {
    std::fprintf(stderr, "bench_tpch_scale: SF=%.3g ...\n", sf);
    SfResult r = RunOne(sf, opts.seed, quick);
    deterministic = deterministic && r.reproducible && r.parallel_identical;
    rows.push_back({StrFormat("%.3g", r.sf),
                    StrFormat("%zu", r.lineitem_rows),
                    StrFormat("%.1f", r.gen_serial_ms),
                    StrFormat("%.1f", r.gen_parallel_ms),
                    StrFormat("%.1f", r.tune_ms),
                    StrFormat("%.1f", r.est_improvement_pct),
                    StrFormat("%.1f", r.measured_improvement_pct),
                    F3(r.model_f1), F3(r.optimizer_f1),
                    r.reproducible && r.parallel_identical ? "ok" : "BROKEN"});
    results.push_back(r);
  }
  PrintTable("TPC-H scale sweep: generation and tuning vs scale factor",
             rows);

  std::string json = "{\n  \"sweep\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SfResult& r = results[i];
    json += StrFormat(
        "    {\"sf\": %.4g, \"lineitem_rows\": %zu,\n"
        "     \"gen_serial_ms\": %.1f, \"gen_parallel_ms\": %.1f,\n"
        "     \"reproducible\": %s, \"parallel_identical\": %s,\n"
        "     \"tune_ms\": %.1f, \"queries\": %d, \"improved\": %d,\n"
        "     \"est_improvement_pct\": %.2f,\n"
        "     \"measured_improvement_pct\": %.2f,\n"
        "     \"model_f1\": %.4f, \"optimizer_f1\": %.4f}%s\n",
        r.sf, r.lineitem_rows, r.gen_serial_ms, r.gen_parallel_ms,
        r.reproducible ? "true" : "false",
        r.parallel_identical ? "true" : "false", r.tune_ms, r.queries,
        r.improved, r.est_improvement_pct, r.measured_improvement_pct,
        r.model_f1, r.optimizer_f1, i + 1 < results.size() ? "," : "");
  }
  json += StrFormat("  ],\n  \"deterministic\": %s\n}\n",
                    deterministic ? "true" : "false");
  const Status wrote = WriteFileAtomic("BENCH_tpch_scale.json", json);
  if (!wrote.ok()) {
    std::fprintf(stderr, "warning: %s\n", wrote.ToString().c_str());
  }

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: tpch_sf generation is not deterministic (same seed "
                 "must yield identical ContentFingerprints, serial or "
                 "parallel)\n");
    return 1;
  }
  return 0;
}

// tune_model: the `aimai_cli tune --model-file` path as a closed loop.
//
// Set-up: collect executions on a TPC-DS-like training database (a seed no
// tenant uses), fit the paper's default pair classifier (RandomForest on
// EstNodeCost + LeafBytesWeighted, pair_diff_normalized, lambda = 0.2),
// publish it, build the tenants' databases and sessions. Timed phase: each
// tenant's client thread keeps exactly one TuneContinuous job in flight,
// submitting its next query when the previous job is terminal, until every
// tenant has tuned each of its queries once. One repeat is set-up plus one
// such pass; repeats run until the timed phases cover --seconds. Every
// repeat draws fresh databases from the seed, so a run averages over many
// tenants; a final repeat re-runs the first repeat's inputs and must
// reproduce its results exactly.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "common/random.h"
#include "ml/random_forest.h"
#include "models/repository.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "workloads/collection.h"
#include "workloads/query_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace aimai;

constexpr int kTenants = 4;
constexpr int kTenantScale = 8;
constexpr int kTrainScale = 2;
constexpr int kIterations = 4;
// Tail percentile: the highest that leaves 10 of a repeat's 92 jobs beyond
// it. tail_ms is the median over repeats of each repeat's p89; a pooled
// p95 over a run's ~1,200 jobs was set by the few repeats with the slowest
// jobs and spread 2-3x as much between seeds.
constexpr double kTailQ = 0.89;
// Set-up plus pass of one repeat on the reference 4-core VM.
constexpr double kNominalRepeatS = 1.5;
// Latency objective of one continuous-tuning job (goodput threshold).
constexpr double kJobObjectiveMs = 1000;

std::unique_ptr<BenchmarkDatabase> BuildTpcds(int scale, uint64_t seed,
                                              const std::string& name) {
  auto gen = MakePreparedQueryStream(
      QueryStreamSpec().WithKind("tpcds").WithScale(scale).WithSeed(seed)
          .WithDbName(name));
  Check(gen.ok(), "tpcds build: " + gen.status().ToString());
  return (*gen)->TakeDatabase();
}

struct Repeat {
  double setup_s = 0;
  double train_s = 0;
  double prepare_s = 0;  // Mean per-database build time.
  double pass_s = 0;
  std::vector<double> latency_ms;
  std::vector<JobTiming> timings;
  /// Submits refused (shed or rejected) and admitted jobs that did not
  /// reach kDone.
  int64_t attempted = 0, done = 0, refused = 0, job_errors = 0, shed = 0;
  double initial_cost = 0, final_cost = 0;
  int64_t regressions = 0;
  double index_built = 0;
  size_t train_rows = 0;
  /// tenant|query|final config fingerprint|final cost, in tenant order.
  std::vector<std::string> outcomes;
};

/// Input seeds of repeat `r`: tenants use base + 0..3, training base + 4.
uint64_t RepeatSeed(uint64_t run_seed, size_t r) {
  return run_seed * 7919 + 8 * r;
}

/// One repeat: set-up, then the closed-loop pass. `on_pass` runs right
/// before the pass (the traced run starts its counters and trace there).
Repeat RunRepeat(uint64_t seed,
                 const std::function<void()>& on_pass = [] {}) {
  Repeat rep;
  const int64_t t0 = NowNs();

  // Training data and the published model.
  std::vector<double> prepare_s;
  int64_t p0 = NowNs();
  auto train_db = BuildTpcds(kTrainScale, seed + kTenants, "tpcds_train");
  prepare_s.push_back(NsToMs(NowNs() - p0) / 1e3);
  ExecutionDataRepository train_repo;
  CollectionOptions copts;
  copts.configs_per_query = 8;
  CollectExecutionData(train_db.get(), 0, copts, &train_repo);
  Rng rng(7);
  const auto pairs = train_repo.MakePairs(60, &rng);
  PairDatasetBuilder builder(&train_repo, DefaultPairFeaturizer(),
                             PairLabeler(0.2));
  const Dataset train = builder.Build(pairs);
  auto rf = std::make_shared<RandomForest>();
  const int64_t f0 = NowNs();
  rf->Fit(train);
  rep.train_s = NsToMs(NowNs() - f0) / 1e3;
  rep.train_rows = TotalRows(train_db.get());
  train_db.reset();

  // Databases outlive the service: declared first, destroyed last.
  std::vector<std::unique_ptr<BenchmarkDatabase>> dbs;
  for (int t = 0; t < kTenants; ++t) {
    p0 = NowNs();
    dbs.push_back(BuildTpcds(kTenantScale, seed + static_cast<uint64_t>(t),
                             "tpcds_tenant" + std::to_string(t)));
    prepare_s.push_back(NsToMs(NowNs() - p0) / 1e3);
  }
  rep.prepare_s = Sum(prepare_s) / static_cast<double>(prepare_s.size());
  static bool sizes_printed = false;  // Once per process.
  if (!sizes_printed) {
    sizes_printed = true;
    std::fprintf(stderr,
                 "tune_model sizes: training db %zu rows, %zu plans, %zu "
                 "pairs; %d tenants x %zu queries, tenant-0 db %zu rows\n",
                 rep.train_rows, train_repo.num_plans(), pairs.size(),
                 kTenants, dbs[0]->queries().size(),
                 TotalRows(dbs[0].get()));
  }

  auto service_or = TuningService::Create(ServiceOptions()
                                              .WithThreads(
                                                  PoolThreads("tune_model"))
                                              .WithJobRunners(ThreadBudget())
                                              .WithMaxInflightJobs(
                                                  ThreadBudget()));
  Check(service_or.ok(), "service: " + service_or.status().ToString());
  std::unique_ptr<TuningService> service = std::move(service_or).value();
  service->models().Publish("pairwise", rf, DefaultPairFeaturizer());
  std::vector<Session*> sessions;
  for (int t = 0; t < kTenants; ++t) {
    SessionOptions so;
    so.name = "tenant-" + std::to_string(t);
    so.env = dbs[static_cast<size_t>(t)]->MakeEnv(t);
    so.comparator.regression_threshold = 0.2;
    so.iterations = kIterations;
    so.stop_on_regression = false;
    so.model = "pairwise";
    auto session = service->CreateSession(so);
    Check(session.ok(), "session: " + session.status().ToString());
    sessions.push_back(*session);
  }
  rep.setup_s = NsToMs(NowNs() - t0) / 1e3;

  on_pass();
  // Timed phase: one closed-loop client thread per tenant.
  struct TenantLog {
    std::vector<double> latency_ms;
    std::vector<JobTiming> timings;
    std::vector<std::shared_ptr<TuningJob>> jobs;
    int64_t attempted = 0, shed = 0, rejected = 0;
  };
  std::vector<TenantLog> logs(kTenants);
  const int64_t pass0 = NowNs();
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      TenantLog& log = logs[static_cast<size_t>(t)];
      BenchmarkDatabase* db = dbs[static_cast<size_t>(t)].get();
      for (const QuerySpec& q : db->queries()) {
        ++log.attempted;
        const int64_t submit_ns = NowNs();
        auto job = sessions[static_cast<size_t>(t)]->TuneContinuous(
            q, db->initial_config());
        if (!job.ok()) {
          // A shed submit is an error outcome, never a reason to stop.
          ++(job.status().code() == StatusCode::kResourceExhausted
                 ? log.shed
                 : log.rejected);
          continue;
        }
        (*job)->Wait();
        log.latency_ms.push_back(
            StampMs((*job)->terminal_ms()) - NsToMs(submit_ns));
        log.timings.push_back(TimingOf(**job, submit_ns));
        log.jobs.push_back(*job);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  rep.pass_s = NsToMs(NowNs() - pass0) / 1e3;

  for (int t = 0; t < kTenants; ++t) {
    TenantLog& log = logs[static_cast<size_t>(t)];
    rep.attempted += log.attempted;
    rep.shed += log.shed;
    rep.refused += log.shed + log.rejected;
    rep.latency_ms.insert(rep.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
    rep.timings.insert(rep.timings.end(), log.timings.begin(),
                       log.timings.end());
    for (const auto& job : log.jobs) {
      if (job->phase() != JobPhase::kDone) {
        ++rep.job_errors;
        std::fprintf(stderr, "tenant-%d job %s: %s\n", t,
                     JobPhaseName(job->phase()),
                     job->status().ToString().c_str());
        continue;
      }
      ++rep.done;
      const auto& trace = job->outputs().trace;
      rep.initial_cost += trace.initial_cost;
      rep.final_cost += trace.final_cost;
      if (trace.regress_final) ++rep.regressions;
      char cost[64];
      std::snprintf(cost, sizeof(cost), "%.17g", trace.final_cost);
      rep.outcomes.push_back(std::to_string(t) + "|" + trace.query_name +
                             "|" + trace.final_config.Fingerprint() + "|" +
                             cost);
    }
    rep.index_built += static_cast<double>(
        dbs[static_cast<size_t>(t)]->indexes()->num_built());
  }
  service->Shutdown();
  service.reset();  // Before the databases its sessions point into.
  return rep;
}

void CheckOutcomes(const Repeat& first, const Repeat& rep,
                   const char* what) {
  Check(rep.job_errors == 0,
        std::string(what) + ": not every admitted job reached kDone");
  Check(rep.outcomes == first.outcomes,
        std::string(what) +
            ": per-query (final config, final cost) differs between repeats");
}

}  // namespace

void RunTuneModel(const Args& args, Report* report) {
  const uint64_t seed = RepeatSeed(args.seed, 0);

  if (args.trace) {
    // Untraced and traced repeats of the same inputs, alternating
    // (u t u t u); the overhead compares their median pass times and the
    // per-layer numbers come from the last traced pass.
    SetTracing(false);
    const Repeat first = RunRepeat(seed);
    Check(first.job_errors == 0,
          "untraced run: not every admitted job reached kDone");
    std::vector<double> plain_s = {first.pass_s}, traced_s;
    Repeat traced;
    std::map<std::string, int64_t> before, after;
    std::vector<obs::TraceEvent> events;
    int64_t dropped = 0;
    for (int i = 0; i < 2; ++i) {
      traced = RunRepeat(seed, [&] {
        SetTracing(true);
        before = CounterSnapshot();
      });
      after = CounterSnapshot();
      events = obs::Tracer().Events();
      dropped += obs::Tracer().dropped();
      SetTracing(false);
      CheckOutcomes(first, traced, "traced run");
      traced_s.push_back(traced.pass_s);
      const Repeat plain = RunRepeat(seed);
      CheckOutcomes(first, plain, "untraced run");
      plain_s.push_back(plain.pass_s);
    }
    Check(dropped == 0, "trace events dropped");

    Layers layers;
    layers.FillFromObs(before, after, SummarizeTrace(events));
    layers.models_train_s = traced.train_s;
    layers.index_built = traced.index_built;
    layers.service_mid = SummarizeLevel(traced.timings, traced.shed, kTailQ);
    layers.service_low = layers.service_high = layers.service_mid;
    layers.workloads_prepare_s = traced.prepare_s;
    layers.obs_overhead_frac = Median(traced_s) / Median(plain_s) - 1.0;
    layers.obs_trace_dropped = static_cast<double>(dropped);
    layers.AddTo(report);
    report->attempted = 5 * first.attempted;
    report->failed = 5 * first.refused;
    return;
  }

  // A fixed number of repeats per --seconds, so one seed always measures
  // the same work.
  SetTracing(false);
  const size_t repeats = static_cast<size_t>(
      std::max(3.0, std::round(args.seconds / kNominalRepeatS)));
  std::vector<Repeat> reps;
  for (size_t r = 0; r < repeats; ++r) {
    reps.push_back(RunRepeat(RepeatSeed(args.seed, r)));
    Check(reps.back().job_errors == 0,
          "repeat: not every admitted job reached kDone");
  }
  CheckOutcomes(reps.front(), RunRepeat(seed), "re-run");

  std::vector<double> latency, tail, setup, rate, cost_ratio;
  int64_t jobs = 0, attempted = 0, refused = 0, regressions = 0;
  for (const Repeat& r : reps) {
    Check(TailSupported(r.latency_ms.size(), kTailQ),
          "too few jobs in a repeat for the tail percentile");
    tail.push_back(Percentile(r.latency_ms, kTailQ));
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    setup.push_back(r.setup_s);
    rate.push_back(static_cast<double>(r.done) / r.pass_s);
    jobs += r.done;
    attempted += r.attempted;
    refused += r.refused;
    regressions += r.regressions;
    cost_ratio.push_back(r.final_cost / r.initial_cost);
  }
  int64_t within = 0;
  for (double ms : latency) within += ms <= kJobObjectiveMs ? 1 : 0;
  const double tail_ms = Median(tail);
  const double throughput = Median(rate);
  report->attempted = attempted;
  report->failed = refused;
  AddEndToEnd(report, EndToEnd{
                          .setup_s = Median(setup),
                          .throughput = throughput,
                          .p50_ms = Median(latency),
                          .tail_ms = tail_ms,
                          .tail_ms_low = tail_ms,
                          .tail_ms_high = tail_ms,
                          .slo_rate_per_s =
                              throughput * static_cast<double>(within) /
                              static_cast<double>(jobs),
                          .ok_frac = 1.0 - static_cast<double>(refused) /
                                               static_cast<double>(attempted),
                          .cost_ratio = Median(cost_ratio),
                          .no_regress_frac =
                              1.0 - static_cast<double>(regressions) /
                                        static_cast<double>(jobs),
                      });
}

}  // namespace perfbench

// aimai_cli — a small driver around the library's pipeline, in the shape a
// downstream user would script it:
//
//   aimai_cli collect --db tpch --scale 2 --out telemetry.repo
//   aimai_cli train   --in telemetry.repo --model rf --out model.rf
//   aimai_cli eval    --in telemetry.repo --model-file model.rf
//   aimai_cli tune    --db tpcds --scale 2 --model-file model.rf
//
// Each subcommand prints what it did; telemetry and models persist via the
// library's serialization (common/serialize.h, models/repository_io.h).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "ml/metrics.h"
#include "ml/split.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "models/classifier_model.h"
#include "models/regressor_models.h"
#include "models/repository_io.h"
#include "service/resilience/chaos.h"
#include "service/service.h"
#include "traffic/traffic_engine.h"
#include "tuner/continuous_tuner.h"
#include "workloads/collection.h"
#include "workloads/customer.h"
#include "workloads/query_stream.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"

using namespace aimai;

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc;) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    // A flag followed by another --flag (or by nothing) is a bare switch,
    // e.g. `tune --online-learning --retrain-after 8`.
    if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
      flags[key] = "1";
      i += 1;
    } else {
      flags[key] = argv[i + 1];
      i += 2;
    }
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& def) {
  auto it = flags.find(key);
  return it == flags.end() ? def : it->second;
}

// --db and --workload are synonyms; tpch_sf additionally honors --sf
// (fractional scale factor, lineitem ~ sf x 6M rows). `default_kind`
// preserves each subcommand's historical default workload.
QueryStreamSpec StreamSpecFromFlags(
    const std::map<std::string, std::string>& flags,
    const std::string& default_kind, uint64_t seed) {
  QueryStreamSpec spec;
  spec.kind = FlagOr(flags, "workload", FlagOr(flags, "db", default_kind));
  spec.scale = std::atoi(FlagOr(flags, "scale", "2").c_str());
  spec.sf = std::atof(FlagOr(flags, "sf", "0.01").c_str());
  spec.seed = seed;
  // Historical database naming: customerN databases are named after the
  // kind itself, everything else after "<kind>_db" (the spec default).
  if (spec.kind.rfind("customer", 0) == 0) spec.db_name = spec.kind;
  return spec;
}

std::string KnownKinds() {
  std::string kinds;
  for (const std::string& k : QueryStreamRegistry::Global().Kinds()) {
    if (!kinds.empty()) kinds += "|";
    kinds += k;
  }
  return kinds;
}

std::unique_ptr<BenchmarkDatabase> BuildDb(
    const std::map<std::string, std::string>& flags,
    const std::string& default_kind, uint64_t seed) {
  const QueryStreamSpec spec = StreamSpecFromFlags(flags, default_kind, seed);
  auto gen_or = MakePreparedQueryStream(spec);
  if (!gen_or.ok()) {
    std::fprintf(stderr, "--workload '%s': %s (known: %s)\n",
                 spec.kind.c_str(), gen_or.status().ToString().c_str(),
                 KnownKinds().c_str());
    std::exit(2);
  }
  auto db_or = (*gen_or)->TakeDatabase();
  if (db_or == nullptr) {
    std::fprintf(stderr, "--workload '%s': database build failed\n",
                 spec.kind.c_str());
    std::exit(2);
  }
  return db_or;
}

PairFeaturizer DefaultFeaturizer() {
  return PairFeaturizer({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                        PairCombine::kPairDiffNormalized);
}

int CmdCollect(const std::map<std::string, std::string>& flags) {
  auto bdb = BuildDb(flags, "tpch",
                     std::strtoull(FlagOr(flags, "seed", "42").c_str(),
                                   nullptr, 10));
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query =
      std::atoi(FlagOr(flags, "configs", "8").c_str());
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  const std::string out = FlagOr(flags, "out", "telemetry.repo");
  // Crash-safe save: temp file + fsync + rename, so an interrupted
  // collect never leaves a torn telemetry file behind.
  const Status st = SaveRepositoryToFile(out, repo);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 2;
  }
  std::printf("collected %zu plans from %s -> %s\n", repo.num_plans(),
              bdb->name().c_str(), out.c_str());
  return 0;
}

int CmdTrain(const std::map<std::string, std::string>& flags) {
  ExecutionDataRepository repo;
  const std::string in = FlagOr(flags, "in", "telemetry.repo");
  std::ifstream f(in, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", in.c_str());
    return 2;
  }
  RepositoryLoadStats lstats;
  const Status lst = LoadRepository(&f, &repo, &lstats);
  if (!lst.ok()) {
    std::fprintf(stderr, "load failed: %s\n", lst.ToString().c_str());
    return 2;
  }
  if (lstats.records_skipped > 0) {
    std::fprintf(stderr, "warning: skipped %llu corrupt telemetry records\n",
                 static_cast<unsigned long long>(lstats.records_skipped));
  }
  Rng rng(7);
  const auto pairs = repo.MakePairs(60, &rng);
  PairFeaturizer fz = DefaultFeaturizer();
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  Dataset train = builder.Build(pairs);

  RandomForest rf;
  rf.Fit(train);
  const std::string out = FlagOr(flags, "out", "model.rf");
  std::ofstream mf(out, std::ios::binary);
  TokenWriter w(&mf);
  rf.Save(&w);
  std::printf("trained RF on %zu pairs (%zu features) -> %s\n", train.n(),
              train.d(), out.c_str());
  return 0;
}

int CmdEval(const std::map<std::string, std::string>& flags) {
  ExecutionDataRepository repo;
  std::ifstream f(FlagOr(flags, "in", "telemetry.repo"), std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot open telemetry\n");
    return 2;
  }
  const Status lst = LoadRepository(&f, &repo);
  if (!lst.ok()) {
    std::fprintf(stderr, "load failed: %s\n", lst.ToString().c_str());
    return 2;
  }
  RandomForest rf;
  {
    std::ifstream mf(FlagOr(flags, "model-file", "model.rf"),
                     std::ios::binary);
    if (!mf) {
      std::fprintf(stderr, "cannot open model\n");
      return 2;
    }
    TokenReader r(&mf);
    rf.Load(&r);
  }
  Rng rng(9);
  const auto pairs = repo.MakePairs(60, &rng);
  PairFeaturizer fz = DefaultFeaturizer();
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  ConfusionMatrix cm(3), cm_opt(3);
  PairLabeler lab(0.2);
  for (const PlanPairRef& p : pairs) {
    const ExecutedPlan& a = repo.plan(p.a);
    const ExecutedPlan& b = repo.plan(p.b);
    const int truth = lab.Label(a.exec_cost, b.exec_cost);
    const std::vector<double> x = builder.Features(p);
    cm.Add(truth, rf.Predict(x.data()));
    cm_opt.Add(truth, lab.Label(a.est_cost, b.est_cost));
  }
  std::printf("pairs=%zu\n", pairs.size());
  std::printf("model:     F1(regression)=%.3f accuracy=%.3f\n",
              cm.ForClass(kRegression).f1, cm.Accuracy());
  std::printf("optimizer: F1(regression)=%.3f accuracy=%.3f\n",
              cm_opt.ForClass(kRegression).f1, cm_opt.Accuracy());
  return 0;
}

// Continuous tuning through the TuningService: --sessions N registers N
// tenants (same --db kind, distinct seeds), each with its own session,
// all sharing one service runtime (thread pool, what-if plan cache, model
// registry). Per-session results are deterministic regardless of N.
int CmdTune(const std::map<std::string, std::string>& flags) {
  const int num_sessions =
      std::max(1, std::atoi(FlagOr(flags, "sessions", "1").c_str()));
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "43").c_str(), nullptr, 10);

  const std::string model_file = FlagOr(flags, "model-file", "");
  const bool with_model = !model_file.empty();

  // --online-learning closes the train-on-executions loop: every measured
  // iteration is harvested into the per-tenant feedback store, drift (or
  // --retrain-after N rows) schedules a background retrain, and the
  // tenant picks up its adapted model at the next iteration boundary.
  const bool online_learning = FlagOr(flags, "online-learning", "") == "1";
  if (online_learning && !with_model) {
    std::fprintf(stderr,
                 "--online-learning needs --model-file: the loop adapts a "
                 "published offline model\n");
    return 2;
  }
  LearningOptions learning;
  if (online_learning) {
    learning.enabled = true;
    learning.retrain_after =
        std::atoi(FlagOr(flags, "retrain-after", "8").c_str());
    learning.min_train_rows = 4;
    learning.min_holdout_rows = 2;
    learning.feedback.holdout_every = 3;
  }

  // --job-timeout-ms arms the watchdog: a job attempt past the deadline
  // is escalated, retried through the service's budget, and failed as
  // kTimedOut if the budget runs out. 0 (default) disables deadlines.
  const int64_t job_timeout_ms = std::strtoll(
      FlagOr(flags, "job-timeout-ms", "0").c_str(), nullptr, 10);
  // Declared before the service so the databases outlive it: running
  // jobs point into them until the service's destructor drains them.
  std::vector<std::unique_ptr<BenchmarkDatabase>> dbs;
  auto service_or = TuningService::Create(
      ServiceOptions()
          .WithJobRunners(std::max(4, num_sessions))
          .WithJobTimeoutMs(job_timeout_ms)
          .WithLearning(learning));
  if (!service_or.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<TuningService> service = std::move(service_or).value();
  if (with_model) {
    auto rf = std::make_shared<RandomForest>();
    std::ifstream mf(model_file, std::ios::binary);
    if (!mf) {
      std::fprintf(stderr, "cannot open model\n");
      return 2;
    }
    TokenReader r(&mf);
    rf->Load(&r);
    service->models().Publish("pairwise", rf, DefaultFeaturizer());
  }

  std::vector<Session*> sessions;
  for (int s = 0; s < num_sessions; ++s) {
    dbs.push_back(BuildDb(flags, "tpcds", seed + static_cast<uint64_t>(s)));
    SessionOptions sopts;
    sopts.name = "tenant-" + std::to_string(s);
    sopts.env = dbs.back()->MakeEnv(s);
    sopts.comparator.regression_threshold = 0.2;
    sopts.iterations = std::atoi(FlagOr(flags, "iterations", "4").c_str());
    sopts.stop_on_regression = !with_model;
    if (with_model) sopts.model = "pairwise";
    auto session_or = service->CreateSession(sopts);
    if (!session_or.ok()) {
      std::fprintf(stderr, "session %d: %s\n", s,
                   session_or.status().ToString().c_str());
      return 2;
    }
    sessions.push_back(session_or.value());
  }

  // Submit everything up front (the queue interleaves sessions fairly),
  // then harvest in deterministic order. A refused submit counts as a
  // failed job; the jobs already in flight still run to the end.
  int improved = 0, regressed = 0, failed = 0;
  size_t total = 0;
  std::vector<std::vector<std::shared_ptr<TuningJob>>> jobs(
      static_cast<size_t>(num_sessions));
  for (int s = 0; s < num_sessions; ++s) {
    for (const QuerySpec& q : dbs[static_cast<size_t>(s)]->queries()) {
      auto job_or = sessions[static_cast<size_t>(s)]->TuneContinuous(
          q, dbs[static_cast<size_t>(s)]->initial_config());
      if (!job_or.ok()) {
        std::fprintf(stderr, "submit: %s\n",
                     job_or.status().ToString().c_str());
        ++failed;
        ++total;
        continue;
      }
      jobs[static_cast<size_t>(s)].push_back(job_or.value());
    }
  }
  for (int s = 0; s < num_sessions; ++s) {
    for (const auto& job : jobs[static_cast<size_t>(s)]) {
      job->Wait();
      ++total;
      if (job->phase() != JobPhase::kDone) {
        ++failed;
        std::printf("[%s] %s\n", sessions[static_cast<size_t>(s)]->name().c_str(),
                    job->status().ToString().c_str());
        continue;
      }
      const auto& trace = job->outputs().trace;
      if (trace.improve_cumulative) ++improved;
      if (trace.regress_final) ++regressed;
      if (num_sessions > 1) {
        std::printf("[%s] ", sessions[static_cast<size_t>(s)]->name().c_str());
      }
      std::printf("%-12s %8.2fms -> %8.2fms%s\n", trace.query_name.c_str(),
                  trace.initial_cost, trace.final_cost,
                  trace.regress_final ? "  [regressed, reverted]" : "");
    }
  }
  std::printf(
      "\n%s tuning: %d/%zu improved >=20%%, %d final regressions, %d failed "
      "(%d sessions, cache hit rate %.1f%%)\n",
      with_model ? "model-gated" : "optimizer-driven", improved, total,
      regressed, failed, num_sessions, 100.0 * service->CacheHitRate());
  if (online_learning) {
    for (Session* session : sessions) {
      service->learning()->BarrierFor(session->name());
      const LearningLoop::TenantStats st =
          service->learning()->StatsFor(session->name());
      std::printf(
          "[%s] learning: %lld rows harvested, %lld drift triggers, "
          "%lld retrains (%lld published, %lld skipped)",
          session->name().c_str(),
          static_cast<long long>(st.rows_harvested),
          static_cast<long long>(st.drift_triggers),
          static_cast<long long>(st.retrains_completed),
          static_cast<long long>(st.publishes),
          static_cast<long long>(st.publish_skipped));
      if (st.adapted_version > 0) {
        std::printf(", adapted v%d (holdout F1 %.3f vs offline %.3f)",
                    st.adapted_version, st.last_adapted_f1,
                    st.last_offline_f1);
      }
      std::printf("\n");
    }
  }
  service->Shutdown();
  return 0;
}

// Deterministic chaos run through the service-resilience harness:
// --sessions tenants (same --db kind, distinct seeds) take continuous-
// tuning jobs while the four service-layer fault points (job crash, job
// stall, torn checkpoint write, model publish failure) fire on the
// --chaos-seed schedule. Exits non-zero unless every fired injection is
// accounted for (recovered + quarantined + shed == injected) and every
// job reached a terminal phase.
int CmdChaos(const std::map<std::string, std::string>& flags) {
  const int num_sessions =
      std::max(1, std::atoi(FlagOr(flags, "sessions", "2").c_str()));
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "43").c_str(), nullptr, 10);
  // Chaos historically defaults to the smallest toy scale.
  std::map<std::string, std::string> db_flags = flags;
  db_flags.emplace("scale", "1");

  std::vector<std::unique_ptr<BenchmarkDatabase>> dbs;
  std::vector<ChaosTenant> tenants;
  for (int s = 0; s < num_sessions; ++s) {
    dbs.push_back(BuildDb(db_flags, "tpch", seed + static_cast<uint64_t>(s)));
    ChaosTenant tenant;
    tenant.session.name = "tenant-" + std::to_string(s);
    tenant.session.env = dbs.back()->MakeEnv(s);
    tenant.session.comparator.regression_threshold = 0.2;
    tenant.session.iterations =
        std::atoi(FlagOr(flags, "iterations", "6").c_str());
    tenant.query = dbs.back()->queries()[0];
    tenant.initial = dbs.back()->initial_config();
    tenants.push_back(std::move(tenant));
  }

  ChaosOptions copts;
  copts.seed = std::strtoull(FlagOr(flags, "chaos-seed", "1").c_str(),
                             nullptr, 10);
  copts.journal_dir = FlagOr(flags, "journal-dir", "chaos_journal");
  auto report_or = RunChaos(copts, std::move(tenants));
  if (!report_or.ok()) {
    std::fprintf(stderr, "chaos: %s\n",
                 report_or.status().ToString().c_str());
    return 2;
  }
  const ChaosReport& report = report_or.value();
  std::printf("%s\n", report.ToString().c_str());
  if (!report.accounted() || !report.all_jobs_terminal) {
    std::fprintf(stderr, "FAIL: chaos run did not balance its books\n");
    return 1;
  }
  return 0;
}

// Open-loop traffic run: --sessions tenant streams (arrival times drawn
// from --arrival, queries from the --workload stream family) replayed
// against one TuningService with an SLO deadline per job. Prints
// sustained jobs/sec, latency percentiles, and the steady vs flash-crowd
// phase split; exits non-zero if the shed accounting does not balance.
int CmdTraffic(const std::map<std::string, std::string>& flags) {
  TrafficOptions topts;
  topts.sessions =
      std::max(1, std::atoi(FlagOr(flags, "sessions", "64").c_str()));
  topts.duration_s = std::atof(FlagOr(flags, "duration-s", "2").c_str());
  topts.slo_ms = std::strtoll(FlagOr(flags, "slo-ms", "250").c_str(),
                              nullptr, 10);
  topts.enforce_slo_deadline =
      FlagOr(flags, "no-slo-deadline", "") != "1";
  topts.seed =
      std::strtoull(FlagOr(flags, "seed", "42").c_str(), nullptr, 10);
  topts.runners = std::max(1, std::atoi(FlagOr(flags, "runners", "8").c_str()));
  topts.max_queued =
      std::max(1, std::atoi(FlagOr(flags, "max-queued", "256").c_str()));
  topts.databases =
      std::max(1, std::atoi(FlagOr(flags, "databases", "4").c_str()));
  topts.time_compression =
      std::atof(FlagOr(flags, "time-compression", "0").c_str());

  auto kind_or = ParseArrivalKind(FlagOr(flags, "arrival", "poisson"));
  if (!kind_or.ok()) {
    std::fprintf(stderr, "%s\n", kind_or.status().ToString().c_str());
    return 2;
  }
  topts.arrival.kind = kind_or.value();
  topts.arrival.rate_per_sec =
      std::atof(FlagOr(flags, "rate", "1").c_str());

  // Same workload-selection path as tune/chaos, but streamed: the
  // registry generator keeps producing fresh query instances instead of
  // handing over a fixed database.
  topts.stream = StreamSpecFromFlags(flags, "synthetic", topts.seed);

  TrafficEngine engine(topts);
  auto report_or = engine.Run();
  if (!report_or.ok()) {
    std::fprintf(stderr, "traffic: %s\n",
                 report_or.status().ToString().c_str());
    return 2;
  }
  const TrafficReport& r = report_or.value();
  std::printf(
      "traffic: %d sessions, %s arrivals @ %.2f/s for %.1fs (sim), "
      "%d runners, SLO %lldms\n",
      topts.sessions, ArrivalKindName(topts.arrival.kind),
      topts.arrival.rate_per_sec, topts.duration_s, topts.runners,
      static_cast<long long>(topts.slo_ms));
  std::printf(
      "  arrived %lld  admitted %lld  shed %lld  rejected %lld\n",
      static_cast<long long>(r.arrived), static_cast<long long>(r.admitted),
      static_cast<long long>(r.shed), static_cast<long long>(r.rejected));
  std::printf(
      "  completed %lld  timed_out %lld  failed %lld  cancelled %lld\n",
      static_cast<long long>(r.completed),
      static_cast<long long>(r.timed_out), static_cast<long long>(r.failed),
      static_cast<long long>(r.cancelled));
  std::printf(
      "  wall %.2fs  %.1f jobs/sec  p50 %.1fms  p99 %.1fms  "
      "SLO miss %.1f%%\n",
      r.wall_s, r.jobs_per_sec, r.p50_ms, r.p99_ms,
      100.0 * r.SloMissRate());
  if (topts.arrival.kind == ArrivalKind::kFlashCrowd) {
    std::printf(
        "  steady: arrived %lld shed %lld p99 %.1fms miss %.1f%%   "
        "flash: arrived %lld shed %lld p99 %.1fms miss %.1f%%\n",
        static_cast<long long>(r.steady.arrived),
        static_cast<long long>(r.steady.shed), r.steady.p99_ms,
        100.0 * r.steady.SloMissRate(),
        static_cast<long long>(r.flash.arrived),
        static_cast<long long>(r.flash.shed), r.flash.p99_ms,
        100.0 * r.flash.SloMissRate());
  }
  if (!r.AccountingBalanced()) {
    std::fprintf(stderr,
                 "FAIL: shed accounting does not balance (admission "
                 "cross-check %s)\n",
                 r.admission_matches ? "ok" : "mismatch");
    return 1;
  }
  std::printf("  accounting balanced across %zu tenants\n",
              r.tenants.size());
  return 0;
}

void Usage() {
  std::printf(
      "aimai_cli <command> [--flag value ...]\n\n"
      "commands:\n"
      "  collect --db tpch|tpcds|customerN|tpch_sf --scale N --seed N "
      "--configs N --out FILE\n"
      "  train   --in FILE --out FILE\n"
      "  eval    --in FILE --model-file FILE\n"
      "  tune    --db ... --scale N [--model-file FILE] --iterations N\n"
      "          [--sessions N]     N concurrent tenants through one\n"
      "                             TuningService (distinct seeds; shared\n"
      "                             thread pool, plan cache, model registry)\n"
      "          [--job-timeout-ms N]  per-attempt job deadline enforced by\n"
      "                             the service watchdog (escalate, retry,\n"
      "                             then kTimedOut; 0 = no deadline)\n"
      "          [--online-learning]  harvest measured executions into the\n"
      "                             per-tenant feedback store, retrain in\n"
      "                             the background on drift, and publish a\n"
      "                             tenant-adapted model (needs\n"
      "                             --model-file)\n"
      "          [--retrain-after N]  also retrain every N harvested rows\n"
      "                             (default 8; 0 = drift-triggered only)\n"
      "  chaos   --db ... --scale N [--sessions N] [--iterations N]\n"
      "          [--chaos-seed N]   deterministic service-layer fault\n"
      "                             schedule (job crash/stall, torn\n"
      "                             checkpoint write, publish failure)\n"
      "          [--journal-dir D]  checkpoint journal directory\n"
      "                             (exits non-zero unless recovered +\n"
      "                             quarantined + shed == injected)\n"
      "  traffic --arrival poisson|diurnal|flash\n"
      "          [--sessions N]     open-loop tenant streams (default 64)\n"
      "          [--rate R]         mean arrivals/sec per session\n"
      "          [--slo-ms N]       per-job latency SLO, enforced as a\n"
      "                             watchdog deadline (--no-slo-deadline\n"
      "                             keeps SLO accounting but lets jobs\n"
      "                             run to completion)\n"
      "          [--duration-s S]   simulated stream horizon per session\n"
      "          [--runners N] [--max-queued N] [--databases N]\n"
      "                             service substrate: runner fleet, shed\n"
      "                             bound, shared databases\n"
      "          [--time-compression C]  0 = replay as fast as possible\n"
      "                             (default), 1 = real time\n"
      "          [--workload KIND]  query-stream family (default\n"
      "                             synthetic; any registry kind works)\n"
      "                             (exits non-zero unless arrived ==\n"
      "                             admitted + shed + rejected, per\n"
      "                             tenant and vs the admission "
      "controller)\n\n"
      "workload selection (any command that builds a database):\n"
      "  --workload KIND            synonym for --db\n"
      "  --sf F                     fractional TPC-H scale factor for\n"
      "                             --workload tpch_sf (lineitem ~ F x 6M\n"
      "                             rows; e.g. --sf 0.1; default 0.01).\n"
      "                             Generation is deterministic per --seed\n"
      "                             and bit-identical serial vs parallel.\n\n"
      "parallelism (any command):\n"
      "  --threads N                what-if/tuner worker threads\n"
      "                             (overrides AIMAI_THREADS; default:\n"
      "                             hardware concurrency; 1 = serial)\n\n"
      "execution engine (any command that executes plans):\n"
      "  --exec row|vector          query execution engine (overrides\n"
      "                             AIMAI_EXEC; default vector = columnar\n"
      "                             batch pipeline with row fallback;\n"
      "                             results are bit-identical either way)\n\n"
      "observability (any command):\n"
      "  --metrics text|json|PATH   dump a metrics snapshot on exit\n"
      "                             (text/json -> stdout, else write JSON\n"
      "                             to PATH)\n"
      "  --trace-out PATH           collect trace spans and write a Chrome\n"
      "                             trace-event JSON (open in about:tracing\n"
      "                             or https://ui.perfetto.dev)\n");
}

// Honors --metrics and --trace-out after the subcommand has run. Returns
// false (with a message on stderr) only if an output file cannot be written.
bool EmitObservability(const std::map<std::string, std::string>& flags) {
  bool ok = true;
  const std::string metrics = FlagOr(flags, "metrics", "");
  if (metrics == "text") {
    std::printf("%s", obs::TextSnapshot().c_str());
  } else if (metrics == "json") {
    std::printf("%s\n", obs::JsonSnapshot().c_str());
  } else if (!metrics.empty()) {
    std::ofstream f(metrics);
    f << obs::JsonSnapshot() << "\n";
    if (f.fail()) {
      std::fprintf(stderr, "cannot write metrics to %s\n", metrics.c_str());
      ok = false;
    }
  }
  const std::string trace_out = FlagOr(flags, "trace-out", "");
  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    f << obs::ChromeTraceJson() << "\n";
    if (f.fail()) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      ok = false;
    } else {
      std::fprintf(stderr, "wrote %zu trace events to %s\n",
                   obs::Tracer().Events().size(), trace_out.c_str());
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (!FlagOr(flags, "trace-out", "").empty()) {
    obs::SetTraceEnabled(true);
  }
  // Resolve before any tuning runs: the shared pool's size is fixed the
  // first time it is used.
  const int threads = std::atoi(FlagOr(flags, "threads", "0").c_str());
  if (threads > 0) SetConfiguredThreads(threads);
  const std::string exec_mode = FlagOr(flags, "exec", "");
  if (exec_mode == "row") {
    SetDefaultExecMode(ExecMode::kRow);
  } else if (exec_mode == "vector") {
    SetDefaultExecMode(ExecMode::kBatch);
  } else if (!exec_mode.empty()) {
    std::fprintf(stderr, "unknown --exec '%s' (row|vector)\n",
                 exec_mode.c_str());
    return 1;
  }
  int rc = 1;
  if (cmd == "collect") {
    rc = CmdCollect(flags);
  } else if (cmd == "train") {
    rc = CmdTrain(flags);
  } else if (cmd == "eval") {
    rc = CmdEval(flags);
  } else if (cmd == "tune") {
    rc = CmdTune(flags);
  } else if (cmd == "chaos") {
    rc = CmdChaos(flags);
  } else if (cmd == "traffic") {
    rc = CmdTraffic(flags);
  } else {
    Usage();
    return 1;
  }
  if (!EmitObservability(flags) && rc == 0) rc = 2;
  return rc;
}

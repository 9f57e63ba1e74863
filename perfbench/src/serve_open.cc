// serve_open: the service/traffic path as an open loop.
//
// 64 tenant sessions over 4 shared TPC-DS-like scale-2 databases on one
// TuningService whose what-if plan cache is smaller than the stream's
// working set. One load thread draws arrivals from a seeded Poisson
// process, takes each query from its database's registry stream
// (NextQueryBatch) and submits Session::TuneQuery (optimizer-only
// comparator, no job deadline). After a warm-up that fills the plan cache
// until it evicts, rounds of three fixed offered rates follow. A round's
// steps run back to back, each for the same number of arrivals, sized so
// that the schedule fills --seconds; every round starts on an idle queue.
// Latency runs from each arrival's due time to the job's terminal stamp,
// and every latency metric is the median over the rounds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "workloads/query_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace aimai;

constexpr int kSessions = 64;
constexpr int kDatabases = 4;
constexpr int kScale = 2;
// Sized so that a job runs for several milliseconds, well above the 1 ms
// resolution of TuningJob's stamps.
constexpr int kMaxNewIndexes = 3;
constexpr int kMaxQueued = 256;
constexpr int kCacheShards = 16;
constexpr int64_t kCacheShardCapacity = 512;  // 8,192 plans in total.
constexpr double kSloMs = 250;
// Set-up builds per batch: one batch before the warm-up (its last build is
// kept) and one after each round on a drained queue, 25 builds in all, so
// setup_s covers the whole run rather than its first second.
constexpr int kSetupBatch = 5;
// Warm-up arrivals, at the high rate. Fixed, so the steps' arrivals and
// queries are a function of the seed alone; once its jobs are done the
// plan cache must have evicted.
constexpr int kWarmupArrivals = 600;
// The databases (and so each one's query stream) come from fixed dataset
// seeds, the way dbgen's data is fixed; the run seed drives the arrival
// process (times and tenants).
constexpr uint64_t kDatasetSeed = 42;

struct Step {
  const char* name;
  double rate_per_s;  // Offered arrivals per second, all sessions together.
};
// Chosen once at about 10/20/30% of the substrate's max-pressure capacity
// (see SPEC.md) and frozen as absolute rates. At 15/30/45% the high step's
// tail rose by 40-70% in runs where the host ran slow.
constexpr Step kSteps[3] = {{"low", 35}, {"mid", 70}, {"high", 105}};
constexpr int kMid = 1;
constexpr int kHigh = 2;
// Rounds of the three steps; every latency metric is a median over them.
constexpr int kRounds = 4;
// A step's tail is the value with this many of its arrivals beyond it.
// With 10 beyond (p89.5 of a round at --seconds 20) the tails spread
// 0.12-0.26 between seeds; with 20 beyond, 0.06-0.10 on the same runs.
constexpr int kTailBeyond = 20;

/// Databases, service and sessions. The service is declared after the
/// generators that own the databases, so it is destroyed first.
struct Substrate {
  std::vector<std::unique_ptr<IQueryStreamGenerator>> gens;
  std::unique_ptr<TuningService> service;
  std::vector<Session*> sessions;
  double prepare_s = 0;  // Mean per-database build time.

  ~Substrate() {
    if (service != nullptr) service->Shutdown();
    service.reset();
  }
};

std::unique_ptr<Substrate> BuildSubstrate(int threads,
                                          int64_t shard_capacity) {
  auto s = std::make_unique<Substrate>();
  for (int k = 0; k < kDatabases; ++k) {
    const int64_t p0 = NowNs();
    auto gen = MakePreparedQueryStream(
        QueryStreamSpec().WithKind("tpcds").WithScale(kScale)
            .WithSeed(kDatasetSeed + static_cast<uint64_t>(k))
            .WithDbName("tpcds_db" + std::to_string(k)));
    Check(gen.ok(), "tpcds build: " + gen.status().ToString());
    s->gens.push_back(std::move(gen).value());
    s->prepare_s += NsToMs(NowNs() - p0) / 1e3 / kDatabases;
  }
  auto service = TuningService::Create(
      ServiceOptions()
          .WithThreads(PoolThreads("serve_open"))
          .WithJobRunners(threads)
          .WithMaxInflightJobs(threads)
          .WithMaxQueuedJobs(kMaxQueued)
          .WithMaxSessions(kSessions)
          .WithCacheShards(kCacheShards)
          .WithCacheShardCapacity(shard_capacity));
  Check(service.ok(), "service: " + service.status().ToString());
  s->service = std::move(service).value();
  for (int i = 0; i < kSessions; ++i) {
    BenchmarkDatabase* db = s->gens[static_cast<size_t>(i % kDatabases)]
                                ->database();
    SessionOptions so;
    so.name = "t" + std::to_string(i);
    so.env = db->MakeEnv(i % kDatabases);
    so.max_new_indexes = kMaxNewIndexes;
    so.job_timeout_ms = 0;  // No watchdog deadline.
    auto session = s->service->CreateSession(so);
    Check(session.ok(), "session: " + session.status().ToString());
    s->sessions.push_back(*session);
  }
  return s;
}

struct Arrival {
  int round = 0;
  int step = -1;  // -1 = warm-up.
  int session = 0;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  StatusCode code = StatusCode::kOk;
  std::shared_ptr<TuningJob> job;
};

/// Queue depth seen at each arrival, with the arrival's position in its
/// step (fraction of the step's arrivals).
struct DepthSample {
  int round;
  int step;
  double frac;
  double depth;
};

class LoadGenerator {
 public:
  LoadGenerator(Substrate* s, uint64_t seed) : s_(s), rng_(seed) {}

  /// `count` open-loop arrivals at `rate`, starting where the previous
  /// call's schedule ended (or now, for the first call and after Rebase).
  /// Returns the schedule time they spanned, s.
  double Run(int round, int step, double rate, int count) {
    if (due0_ns_ == 0) due0_ns_ = NowNs();
    const int64_t start_ns = due0_ns_;
    int64_t due = due0_ns_;
    for (int i = 0; i < count; ++i) {
      due += static_cast<int64_t>(-std::log(1.0 - rng_.Uniform()) / rate *
                                  1e9);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      Arrival a;
      a.round = round;
      a.step = step;
      a.session = static_cast<int>(rng_.UniformInt(0, kSessions - 1));
      a.due_ns = due;
      const int64_t b0 = NowNs();
      auto batch =
          s_->gens[static_cast<size_t>(a.session % kDatabases)]
              ->NextQueryBatch(1);
      next_batch_ns_ += NowNs() - b0;
      ++next_batch_calls_;
      Check(batch.ok() && batch->size() == 1, "NextQueryBatch failed");
      depth_.push_back({round, step, static_cast<double>(i) / count,
                        static_cast<double>(s_->service->queue_depth())});
      Session* session = s_->sessions[static_cast<size_t>(a.session)];
      a.submit_ns = NowNs();
      auto job = session->TuneQuery(
          (*batch)[0], s_->gens[static_cast<size_t>(a.session % kDatabases)]
                           ->database()
                           ->initial_config());
      if (job.ok()) {
        a.job = *job;
      } else {
        a.code = job.status().code();
      }
      arrivals_.push_back(std::move(a));
    }
    due0_ns_ = due;
    return static_cast<double>(due - start_ns) / 1e9;
  }

  /// Starts the next Run's schedule at the time of that call.
  void Rebase() { due0_ns_ = 0; }

  std::vector<Arrival>& arrivals() { return arrivals_; }
  const std::vector<DepthSample>& depth() const { return depth_; }
  double next_batch_us() const {
    return next_batch_calls_ == 0
               ? 0
               : static_cast<double>(next_batch_ns_) / 1e3 /
                     static_cast<double>(next_batch_calls_);
  }

 private:
  Substrate* s_;
  Rng rng_;
  int64_t due0_ns_ = 0;
  int64_t next_batch_ns_ = 0;
  int64_t next_batch_calls_ = 0;
  std::vector<Arrival> arrivals_;
  std::vector<DepthSample> depth_;
};

struct StepResult {
  int64_t arrived = 0, admitted = 0, shed = 0, rejected = 0;
  int64_t done = 0, timed_out = 0, failed = 0, cancelled = 0;
  std::vector<double> latency_ms;  // Due -> terminal; misses count as inf.
  std::vector<JobTiming> timings;
  double p50_ms = 0, tail_ms = 0;
  bool backlog_grew = false;
  double base_cost = 0, final_cost = 0;
  int64_t not_regressed = 0;
};

struct RunResult {
  double setup_s = 0;
  double prepare_s = 0;
  int per_step = 0;    // Arrivals per step.
  double tail_q = 0;   // Percentile of every step's tail.
  double span_s = 0;   // Schedule time of all steps.
  StepResult steps[kRounds][3];
  std::vector<double> late_ms;
  double next_batch_us = 0;
  double steps_cpu_s = 0;  // Process CPU time over the rounds.
  /// Outcome key per step arrival, in arrival order; empty for a job that
  /// was not done (traced vs untraced check).
  std::vector<std::string> outcomes;
};

/// One full run: set-up, the warm-up, then kRounds rounds of the three
/// steps, each followed by more set-up builds. `on_steps` runs right before
/// the first step (the traced run starts its counters and trace there).
RunResult RunOnce(uint64_t seed, int threads, double seconds,
                  const std::function<void()>& on_steps) {
  RunResult r;
  // Arrivals per step: the count whose expected schedule, over all rounds,
  // fills `seconds`.
  double s_per_arrival = 0;
  for (const Step& step : kSteps) s_per_arrival += 1 / step.rate_per_s;
  r.per_step = static_cast<int>(seconds / (kRounds * s_per_arrival));
  Check(r.per_step >= 2 * kTailBeyond,
        "--seconds too short for serve_open's steps");
  r.tail_q = (r.per_step - kTailBeyond - 0.5) / r.per_step;
  std::vector<double> setups;
  const auto build = [&] {
    const int64_t t0 = NowNs();
    auto built = BuildSubstrate(threads, kCacheShardCapacity);
    setups.push_back(NsToMs(NowNs() - t0) / 1e3);
    return built;
  };
  std::unique_ptr<Substrate> s;
  for (int i = 0; i < kSetupBatch; ++i) {
    s.reset();
    s = build();
  }
  r.prepare_s = s->prepare_s;
  static bool sizes_printed = false;  // Once per process.
  if (!sizes_printed) {
    sizes_printed = true;
    std::fprintf(stderr,
                 "serve_open sizes: %d sessions over %d dbs of %zu rows "
                 "(db 0), plan cache %lld plans\n",
                 kSessions, kDatabases, TotalRows(s->gens[0]->database()),
                 static_cast<long long>(kCacheShards * kCacheShardCapacity));
  }

  LoadGenerator gen(s.get(), seed);
  gen.Run(0, -1, kSteps[kHigh].rate_per_s, kWarmupArrivals);
  for (const Arrival& a : gen.arrivals()) {
    if (a.job != nullptr) a.job->Wait();
  }
  Check(s->service->cache_domain().num_evictions() > 0,
        "warm-up did not fill the plan cache");
  gen.Rebase();
  on_steps();
  const double cpu0 = CpuSeconds();
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < 3; ++k) {
      r.span_s += gen.Run(round, k, kSteps[k].rate_per_s, r.per_step);
    }
    for (const Arrival& a : gen.arrivals()) {
      if (a.job != nullptr) a.job->Wait();
    }
    for (int i = 0; i < kSetupBatch; ++i) build();
    gen.Rebase();
  }
  r.steps_cpu_s = CpuSeconds() - cpu0;
  r.setup_s = Median(setups);
  r.next_batch_us = gen.next_batch_us();
  std::fprintf(stderr,
               "serve_open plan cache after the steps: %zu plans, %lld "
               "evictions\n",
               s->service->cache_domain().size(),
               static_cast<long long>(
                   s->service->cache_domain().num_evictions()));

  // Ledger check per tenant over the whole run (warm-up included), against
  // both the load generator's own counts and the admission controller's.
  struct Ledger {
    int64_t arrived = 0, admitted = 0, shed = 0, rejected = 0, terminal = 0;
  };
  std::map<int, Ledger> ledgers;
  for (const Arrival& a : gen.arrivals()) {
    Ledger& l = ledgers[a.session];
    ++l.arrived;
    if (a.job != nullptr) {
      ++l.admitted;
      const JobPhase p = a.job->phase();
      if (p == JobPhase::kDone || p == JobPhase::kTimedOut ||
          p == JobPhase::kFailed || p == JobPhase::kCancelled) {
        ++l.terminal;
      }
    } else if (a.code == StatusCode::kResourceExhausted) {
      ++l.shed;
    } else {
      ++l.rejected;
    }
  }
  for (const auto& [i, l] : ledgers) {
    const auto adm = s->service->admission().TenantStats(
        s->sessions[static_cast<size_t>(i)]->name());
    Check(l.arrived == l.admitted + l.shed + l.rejected,
          "tenant ledger: arrived != admitted + shed + rejected");
    Check(l.admitted == l.terminal,
          "tenant ledger: admitted != done + timed out + failed + cancelled");
    Check(adm.admitted == l.admitted && adm.shed == l.shed,
          "tenant ledger disagrees with the admission controller");
  }

  for (const Arrival& a : gen.arrivals()) {
    if (a.step < 0) continue;
    StepResult& st = r.steps[a.round][a.step];
    r.late_ms.push_back(NsToMs(a.submit_ns - a.due_ns));
    r.outcomes.emplace_back();
    ++st.arrived;
    if (a.job == nullptr) {
      ++(a.code == StatusCode::kResourceExhausted ? st.shed : st.rejected);
      st.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++st.admitted;
    const TuningJob& job = *a.job;
    const JobTiming timing = TimingOf(job, a.submit_ns);
    st.timings.push_back(timing);
    switch (job.phase()) {
      case JobPhase::kDone: {
        ++st.done;
        st.latency_ms.push_back(StampMs(job.terminal_ms()) -
                                NsToMs(a.due_ns));
        const QueryTuningResult& q = job.outputs().query;
        Check(q.base_plan != nullptr && q.final_plan != nullptr,
              "tuned query without plans");
        const double base = q.base_plan->est_total_cost;
        const double fin = q.final_plan->est_total_cost;
        Check(fin <= base * (1 + 1e-9),
              "recommendation regresses the optimizer estimate");
        st.base_cost += base;
        st.final_cost += fin;
        ++st.not_regressed;
        char key[96];
        std::snprintf(key, sizeof(key), "|%.17g|%.17g", base, fin);
        r.outcomes.back() = std::to_string(a.session) + "|" +
                            q.recommended.Fingerprint() + key;
        continue;
      }
      case JobPhase::kTimedOut: ++st.timed_out; break;
      case JobPhase::kFailed: ++st.failed; break;
      default: ++st.cancelled; break;
    }
    st.latency_ms.push_back(std::numeric_limits<double>::infinity());
  }

  // Backlog: mean queue depth over the last quarter of a step's arrivals
  // against the first quarter; growth by more than one job per runner
  // means the step did not keep up with its offered rate.
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < 3; ++k) {
      std::vector<double> head, tail;
      for (const DepthSample& d : gen.depth()) {
        if (d.round != round || d.step != k) continue;
        if (d.frac < 0.25) head.push_back(d.depth);
        if (d.frac >= 0.75) tail.push_back(d.depth);
      }
      const double h = head.empty() ? 0 : Sum(head) / head.size();
      const double t = tail.empty() ? 0 : Sum(tail) / tail.size();
      StepResult& st = r.steps[round][k];
      st.backlog_grew = t > h + threads;
      st.p50_ms = Median(st.latency_ms);
      st.tail_ms = Percentile(st.latency_ms, r.tail_q);
    }
  }
  s.reset();  // Service first, then the databases.
  return r;
}

}  // namespace

void RunServeOpen(const Args& args, Report* report) {
  const int threads = ThreadBudget();
  const uint64_t seed = args.seed * 7919;

  if (args.trace) {
    SetTracing(false);
    const RunResult plain = RunOnce(seed, threads, args.seconds, [] {});
    std::map<std::string, int64_t> before;
    SetTracing(false);
    const RunResult traced = RunOnce(seed, threads, args.seconds, [&] {
      SetTracing(true);
      before = CounterSnapshot();
    });
    const auto after = CounterSnapshot();
    const auto events = obs::Tracer().Events();
    const int64_t dropped = obs::Tracer().dropped();
    SetTracing(false);
    Check(dropped == 0, "trace events dropped");
    // Which jobs finish can differ when a slow run sheds; every job done in
    // both runs must have the same recommendation.
    Check(traced.outcomes.size() == plain.outcomes.size(),
          "traced run saw a different arrival schedule");
    for (size_t i = 0; i < plain.outcomes.size(); ++i) {
      Check(plain.outcomes[i].empty() || traced.outcomes[i].empty() ||
                plain.outcomes[i] == traced.outcomes[i],
            "traced recommendations differ from the untraced ones");
    }

    Layers layers;
    layers.FillFromObs(before, after, SummarizeTrace(events));
    // Service levels pool each step's jobs over the rounds.
    ServiceLevel* levels[3] = {&layers.service_low, &layers.service_mid,
                               &layers.service_high};
    for (int k = 0; k < 3; ++k) {
      std::vector<JobTiming> timings;
      int64_t shed = 0;
      for (const auto& round : traced.steps) {
        timings.insert(timings.end(), round[k].timings.begin(),
                       round[k].timings.end());
        shed += round[k].shed;
      }
      *levels[k] = SummarizeLevel(timings, shed, traced.tail_q);
    }
    layers.workloads_prepare_s = traced.prepare_s;
    layers.workloads_next_batch_us = traced.next_batch_us;
    layers.gen_late_p99_ms = Percentile(traced.late_ms, 0.99);
    layers.gen_late_max_ms = Percentile(traced.late_ms, 1.0);
    // Open loop: both runs serve the same schedule in the same wall time,
    // so the overhead shows as CPU time.
    layers.obs_overhead_frac = traced.steps_cpu_s / plain.steps_cpu_s - 1;
    layers.obs_trace_dropped = static_cast<double>(dropped);
    layers.AddTo(report);
    for (const RunResult* r : {&plain, &traced}) {
      for (const auto& round : r->steps) {
        for (const StepResult& st : round) {
          report->attempted += st.arrived;
          report->failed += st.arrived - st.done;
        }
      }
    }
    return;
  }

  SetTracing(false);
  const RunResult r = RunOnce(seed, threads, args.seconds, [] {});
  int64_t arrived = 0, done = 0, not_regressed = 0;
  double base = 0, fin = 0;
  std::vector<double> p50, tail[3], slo_rate;
  for (int round = 0; round < kRounds; ++round) {
    double round_slo_rate = 0;
    for (int k = 0; k < 3; ++k) {
      const StepResult& st = r.steps[round][k];
      arrived += st.arrived;
      done += st.done;
      not_regressed += st.not_regressed;
      base += st.base_cost;
      fin += st.final_cost;
      tail[k].push_back(st.tail_ms);
      if (st.tail_ms <= kSloMs && !st.backlog_grew) {
        round_slo_rate = kSteps[k].rate_per_s;
      }
      std::fprintf(stderr,
                   "serve_open round %d step %s: offered %.0f/s arrived "
                   "%lld done %lld shed %lld p50 %.2f ms tail %.2f ms "
                   "backlog %s\n",
                   round, kSteps[k].name,
                   kSteps[k].rate_per_s, static_cast<long long>(st.arrived),
                   static_cast<long long>(st.done),
                   static_cast<long long>(st.shed), st.p50_ms, st.tail_ms,
                   st.backlog_grew ? "grew" : "steady");
    }
    p50.push_back(r.steps[round][kMid].p50_ms);
    slo_rate.push_back(round_slo_rate);
  }
  std::fprintf(stderr, "serve_open generator late p99 %.3f ms\n",
               Percentile(r.late_ms, 0.99));
  report->attempted = arrived;
  report->failed = arrived - done;
  AddEndToEnd(report,
              EndToEnd{
                  .setup_s = r.setup_s,
                  .throughput = static_cast<double>(done) / r.span_s,
                  .p50_ms = Median(p50),
                  .tail_ms = Median(tail[kMid]),
                  .tail_ms_low = Median(tail[0]),
                  .tail_ms_high = Median(tail[kHigh]),
                  .slo_rate_per_s = Median(slo_rate),
                  .ok_frac = static_cast<double>(done) /
                             static_cast<double>(arrived),
                  .cost_ratio = fin / base,
                  .no_regress_frac = static_cast<double>(not_regressed) /
                                     static_cast<double>(done),
              });
}

}  // namespace perfbench

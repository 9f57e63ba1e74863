// Fault-tolerance runtime overhead: the same query-tuning job stream is
// pushed through a baseline TuningService and through one with the full
// resilience stack armed (job deadlines + watchdog thread + stall
// detection + retry budget + checkpoint journal) but no faults injected.
// The acceptance bar is overhead < 2%, the median over interleaved pairs
// of passes of the resilient/baseline wall-time ratio — the watchdog must
// be free when nothing is wrong. Also cross-checks that
// both services produce bit-identical recommendations and reports the
// journal's atomic-append latency separately (it is off the hot path:
// checkpoints are written at drain time, not per job). Emits
// machine-readable results to BENCH_resilience.json (atomic write);
// exits non-zero when the bar is missed.
//
// Knobs: AIMAI_QUICK=1 shrinks the job stream; AIMAI_SEED=<n> reseeds;
// AIMAI_FULL=1 grows it.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "harness.h"
#include "robustness/atomic_file.h"
#include "service/service.h"
#include "workloads/customer.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CustomerProfile TenantProfile(bool quick, bool full) {
  CustomerProfile prof;
  prof.num_tables = 4;
  prof.min_rows = quick ? 200 : 500;
  prof.max_rows = quick ? 1500 : (full ? 8000 : 4000);
  prof.num_queries = quick ? 5 : 8;
  prof.max_joins = 2;
  return prof;
}

std::string ResultKey(const QueryTuningResult& r) {
  std::string key = r.recommended.Fingerprint();
  key += StrFormat("|%.17g|%.17g", r.base_plan->est_total_cost,
                   r.final_plan->est_total_cost);
  return key;
}

struct RunResult {
  double wall_ms = 0;
  std::vector<std::string> keys;
  bool all_done = true;
};

// One timed pass: `jobs_per_session` query-tuning jobs per tenant, waves
// interleaved across sessions exactly like bench_service. The resilient
// configuration arms deadlines far above any honest job's runtime, so the
// watchdog scans but never escalates — its cost is pure overhead.
RunResult RunOnce(bool resilient,
                  const std::vector<std::unique_ptr<BenchmarkDatabase>>& dbs,
                  int jobs_per_session, const std::string& journal_dir) {
  const int sessions = static_cast<int>(dbs.size());
  ServiceOptions sopts;
  sopts.WithJobRunners(4).WithMaxInflightJobs(4).WithMaxQueuedJobs(
      sessions * jobs_per_session + sessions);
  if (resilient) {
    sopts.WithJobTimeoutMs(120000)
        .WithJobStallTimeoutMs(30000)
        .WithWatchdogPollMs(5)
        .WithJournalDir(journal_dir);
  }
  auto service = std::move(TuningService::Create(sopts).value());
  std::vector<Session*> handles;
  for (int s = 0; s < sessions; ++s) {
    SessionOptions so;
    so.name = "tenant-" + std::to_string(s);
    so.env = dbs[static_cast<size_t>(s)]->MakeEnv(s);
    so.comparator.regression_threshold = 0.2;
    handles.push_back(service->CreateSession(so).value());
  }

  RunResult result;
  const double wall0 = NowMs();
  std::vector<std::shared_ptr<TuningJob>> jobs;
  for (int round = 0; round < jobs_per_session; ++round) {
    for (int s = 0; s < sessions; ++s) {
      const auto& queries = dbs[static_cast<size_t>(s)]->queries();
      jobs.push_back(
          handles[static_cast<size_t>(s)]
              ->TuneQuery(queries[static_cast<size_t>(round) % queries.size()],
                          dbs[static_cast<size_t>(s)]->initial_config())
              .value());
    }
  }
  for (const auto& job : jobs) {
    job->Wait();
    if (job->phase() != JobPhase::kDone) result.all_done = false;
    result.keys.push_back(ResultKey(job->outputs().query));
  }
  result.wall_ms = NowMs() - wall0;
  service->Shutdown();
  return result;
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const bool quick = opts.scale_divisor > 2;
  const CustomerProfile prof = TenantProfile(quick, opts.full);
  const int sessions = 4;
  // Passes of 50 ms or longer, so a few milliseconds of scheduler noise
  // cannot decide the 2% bar.
  const int jobs_per_session = opts.full ? 256 : 128;
  const int repeats = 9;
  constexpr double kOverheadBarPct = 2.0;

  const std::string journal_dir =
      (std::filesystem::temp_directory_path() / "aimai_bench_resilience")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);

  std::fprintf(stderr, "building %d tenant databases...\n", sessions);
  std::vector<std::unique_ptr<BenchmarkDatabase>> dbs;
  for (int s = 0; s < sessions; ++s) {
    dbs.push_back(BuildCustomer("resb_" + std::to_string(s), prof,
                                opts.seed + static_cast<uint64_t>(s)));
  }

  bool identical = true;
  bool all_done = true;
  std::vector<std::string> reference_keys;
  const PairedOverhead paired =
      MeasurePairedOverhead(repeats, [&](bool resilient) {
        const RunResult run =
            RunOnce(resilient, dbs, jobs_per_session, journal_dir);
        all_done = all_done && run.all_done;
        if (reference_keys.empty()) reference_keys = run.keys;
        identical = identical && run.keys == reference_keys;
        return run.wall_ms;
      });
  for (int r = 0; r < repeats; ++r) {
    std::fprintf(stderr, "pair %d: baseline %.1f ms, resilient %.1f ms\n",
                 r + 1, paired.base_ms[static_cast<size_t>(r)],
                 paired.instrumented_ms[static_cast<size_t>(r)]);
  }
  const double base_ms = Median(paired.base_ms);
  const double res_ms = Median(paired.instrumented_ms);
  const double overhead_pct = paired.overhead_pct();

  // Journal append latency, reported separately: checkpoints are written
  // at drain time, never inside the job hot path.
  const std::string payload(4096, 'c');
  CheckpointJournal journal({journal_dir, 8});
  const double j0 = NowMs();
  constexpr int kAppends = 16;
  for (int i = 0; i < kAppends; ++i) (void)journal.Append(payload);
  const double append_ms = (NowMs() - j0) / kAppends;

  const int jobs = sessions * jobs_per_session;
  std::printf("%-24s %10s %10s %10s %10s\n", "config", "jobs", "wall_ms",
              "overhead%", "identical");
  std::printf("%-24s %10d %10.1f %10s %10s\n", "baseline", jobs, base_ms,
              "-", "-");
  std::printf("%-24s %10d %10.1f %9.2f%% %10s\n",
              "watchdog+deadline+journal", jobs, res_ms, overhead_pct,
              identical ? "yes" : "NO");
  std::printf("journal append (4 KiB, fsync+rename): %.2f ms\n", append_ms);

  std::string json = StrFormat(
      "{\n  \"sessions\": %d,\n  \"jobs_per_session\": %d,\n"
      "  \"repeats\": %d,\n  \"baseline_ms\": %.1f,\n"
      "  \"resilient_ms\": %.1f,\n  \"overhead_pct\": %.2f,\n"
      "  \"overhead_bar_pct\": %.1f,\n  \"journal_append_ms\": %.2f,\n"
      "  \"identical\": %s,\n  \"all_done\": %s\n}\n",
      sessions, jobs_per_session, repeats, base_ms, res_ms, overhead_pct,
      kOverheadBarPct, append_ms, identical ? "true" : "false",
      all_done ? "true" : "false");
  const Status wrote = WriteFileAtomic("BENCH_resilience.json", json);
  if (!wrote.ok()) {
    std::fprintf(stderr, "warning: %s\n", wrote.ToString().c_str());
  }

  if (!all_done) {
    std::fprintf(stderr, "FAIL: not every job reached kDone\n");
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: resilient service diverged from the baseline\n");
    return 1;
  }
  if (overhead_pct >= kOverheadBarPct) {
    std::fprintf(stderr,
                 "FAIL: resilience overhead %.2f%% >= %.1f%% bar\n",
                 overhead_pct, kOverheadBarPct);
    return 1;
  }
  return 0;
}

// Shared plumbing of the perfbench binary: arguments, clocks,
// sample statistics, the result line, output checks, the thread budget,
// and the trace analysis that turns obs events into per-layer numbers.
#ifndef AIMAI_PERFBENCH_COMMON_H_
#define AIMAI_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "service/job_queue.h"
#include "workloads/workload.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
};

/// A failed output check. Thrown on the main thread; main() prints the
/// reason to stderr and exits non-zero without a result line.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure with `what` unless `ok`.
void Check(bool ok, const std::string& what);

/// The benchmark's one result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  int64_t attempted = 0;
  int64_t failed = 0;
  /// {"correct": true, "attempted": .., "failed": .., "metrics": {..}}
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Steady-clock time; the same clock TuningJob stamps run_start_ms and
/// terminal_ms on, so job stamps and benchmark stamps subtract directly.
int64_t NowNs();
double NsToMs(int64_t ns);

/// Nearest-rank percentile (q in [0, 1]); the value at rank ceil(q * n)
/// has n - ceil(q * n) samples beyond it. 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Sum(const std::vector<double>& v);
/// Checks that `n` samples leave at least 10 beyond percentile `q`.
bool TailSupported(size_t n, double q);

/// Rows across every table of `db` (for the sizes line on stderr).
size_t TotalRows(aimai::BenchmarkDatabase* db);

/// Peak resident set of this process so far, MiB.
double PeakRssMb();
/// User + system CPU time this process has used so far, s.
double CpuSeconds();

/// Threads this process may use: min(4, CPUs in the affinity mask). Pool
/// and runner-fleet sizes derive from this, never from
/// std::thread::hardware_concurrency.
int ThreadBudget();
/// Fan-out pool threads (ServiceOptions::threads and the shared pool) per
/// workload. The service workloads keep every runner busy, so their jobs
/// fan out serially and the runner fleet alone is the parallelism;
/// collect_sf runs one collection at a time and fans out over the budget.
int PoolThreads(const std::string& workload);

/// A TuningJob stamp (whole steady-clock milliseconds, rounded down) as
/// the midpoint of its millisecond, so latencies built from it carry no
/// rounding bias.
double StampMs(int64_t ms);

/// Per-job timing on the job's own stamps: queue wait (submit -> run
/// start) and run time (run start -> terminal), ms.
struct JobTiming {
  double queue_ms = 0;
  double run_ms = 0;
};
JobTiming TimingOf(const aimai::TuningJob& job, int64_t submit_ns);

/// Every obs counter's current value; CounterDelta subtracts two.
std::map<std::string, int64_t> CounterSnapshot();
int64_t CounterDelta(const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after,
                     const std::string& name);

/// Per-layer busy time from trace events. Self time of a span is its
/// duration minus the durations of its direct children (the depth + 1
/// spans nested inside it on the same thread).
struct TraceSummary {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
  std::map<std::string, int64_t> count;
  /// exec.execute split by engine: spans with an exec.vectorized child ran
  /// on the batch engine, the rest on the row engine.
  double exec_row_ms = 0;
  double exec_batch_ms = 0;
  /// Durations of every whatif.optimize span (cache misses only), us.
  std::vector<double> whatif_miss_us;

  double Total(const std::string& name) const;
  double Self(const std::string& name) const;
  int64_t Count(const std::string& name) const;
};
TraceSummary SummarizeTrace(const std::vector<aimai::obs::TraceEvent>& events);

/// The service-layer numbers of one load level.
struct ServiceLevel {
  double queue_wait_p50_ms = 0;
  double queue_wait_tail_ms = 0;
  double run_p50_ms = 0;
  double run_tail_ms = 0;
  double shed = 0;
};
ServiceLevel SummarizeLevel(const std::vector<JobTiming>& timings,
                            int64_t shed, double tail_q);

/// Every per-layer metric of the traced run. Each workload fills the
/// layers it loads; the rest stay 0, which is the measured value for a
/// layer the workload bypasses.
struct Layers {
  double whatif_calls = 0, whatif_hit_rate = 0, whatif_miss_ms = 0,
         whatif_miss_tail_us = 0, whatif_evictions = 0;
  double tuner_candidate_evals = 0, tuner_query_tune_self_ms = 0,
         tuner_comparator_decide_ms = 0, tuner_measurements = 0,
         tuner_measure_self_ms = 0;
  double comparator_prime_ms = 0, featurize_plan_featurizations = 0,
         featurize_plan_cache_hit_rate = 0, ml_predict_ms = 0,
         ml_predict_rows = 0, models_train_s = 0;
  double exec_row_ms = 0, exec_row_plans = 0, exec_batch_ms = 0,
         exec_batch_plans = 0, index_built = 0;
  /// Single-level workloads report their one level as all three.
  ServiceLevel service_low, service_mid, service_high;
  double workloads_prepare_s = 0, workloads_next_batch_us = 0;
  double repo_save_ms = 0, repo_bytes = 0;
  double gen_late_p99_ms = 0, gen_late_max_ms = 0;
  double obs_overhead_frac = 0, obs_trace_dropped = 0;

  /// Fills the what-if, tuner, featurize, ml and exec layers from the
  /// counter deltas and trace of one traced phase.
  void FillFromObs(const std::map<std::string, int64_t>& before,
                   const std::map<std::string, int64_t>& after,
                   const TraceSummary& trace);
  void AddTo(Report* report) const;
};

/// Turns instrumentation fully off (end-to-end runs) or on with trace
/// collection and an emptied, enlarged collector (traced runs).
void SetTracing(bool on);

}  // namespace perfbench

#endif  // AIMAI_PERFBENCH_COMMON_H_

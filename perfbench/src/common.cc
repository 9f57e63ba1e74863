#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

void Check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string Report::Json() const {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", vu.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}}";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank = static_cast<size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

bool TailSupported(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<double>(n) - rank >= 10;
}

size_t TotalRows(aimai::BenchmarkDatabase* db) {
  size_t rows = 0;
  for (int t = 0; t < db->db()->num_tables(); ++t) {
    rows += db->db()->table(t).num_rows();
  }
  return rows;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double CpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

int ThreadBudget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  return std::clamp(cpus, 1, 4);
}

double StampMs(int64_t ms) { return static_cast<double>(ms) + 0.5; }

int PoolThreads(const std::string& workload) {
  return workload == "collect_sf" ? ThreadBudget() : 1;
}

JobTiming TimingOf(const aimai::TuningJob& job, int64_t submit_ns) {
  JobTiming t;
  const double run_start = StampMs(job.run_start_ms());
  t.queue_ms = std::max(0.0, run_start - NsToMs(submit_ns));
  t.run_ms = std::max(0.0, StampMs(job.terminal_ms()) - run_start);
  return t;
}

std::map<std::string, int64_t> CounterSnapshot() {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] :
       aimai::obs::Registry().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

int64_t CounterDelta(const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after,
                     const std::string& name) {
  auto get = [&](const std::map<std::string, int64_t>& m) -> int64_t {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

double TraceSummary::Total(const std::string& name) const {
  auto it = total_ms.find(name);
  return it == total_ms.end() ? 0 : it->second;
}

double TraceSummary::Self(const std::string& name) const {
  auto it = self_ms.find(name);
  return it == self_ms.end() ? 0 : it->second;
}

int64_t TraceSummary::Count(const std::string& name) const {
  auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}

TraceSummary SummarizeTrace(
    const std::vector<aimai::obs::TraceEvent>& events) {
  // Order by (thread, start, depth): a parent starts no later than its
  // children and, on a tie, sorts first. Walking that order, the parent of
  // a depth-d event is the last depth-(d-1) event seen on its thread.
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.depth < y.depth;
  });
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<bool> vectorized_child(events.size(), false);
  std::vector<long> open;  // open[d] = index of the last depth-d event.
  int tid = -1;
  for (size_t i : order) {
    const auto& e = events[i];
    if (e.tid != tid) {
      tid = e.tid;
      open.clear();
    }
    const size_t d = static_cast<size_t>(std::max(0, e.depth));
    if (open.size() <= d) open.resize(d + 1, -1);
    if (d > 0 && open[d - 1] >= 0) {
      const size_t parent = static_cast<size_t>(open[d - 1]);
      const auto& p = events[parent];
      if (e.start_ns + e.dur_ns <= p.start_ns + p.dur_ns) {
        child_ns[parent] += e.dur_ns;
        if (std::string(e.name) == "exec.vectorized") {
          vectorized_child[parent] = true;
        }
      }
    }
    open[d] = static_cast<long>(i);
    open.resize(d + 1);
  }

  TraceSummary s;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    const std::string name = e.name;
    s.total_ms[name] += NsToMs(e.dur_ns);
    s.self_ms[name] += NsToMs(std::max<int64_t>(0, e.dur_ns - child_ns[i]));
    ++s.count[name];
    if (name == "exec.execute") {
      (vectorized_child[i] ? s.exec_batch_ms : s.exec_row_ms) +=
          NsToMs(e.dur_ns);
    } else if (name == "whatif.optimize") {
      s.whatif_miss_us.push_back(static_cast<double>(e.dur_ns) / 1e3);
    }
  }
  return s;
}

ServiceLevel SummarizeLevel(const std::vector<JobTiming>& timings,
                            int64_t shed, double tail_q) {
  std::vector<double> queue, run;
  for (const JobTiming& t : timings) {
    queue.push_back(t.queue_ms);
    run.push_back(t.run_ms);
  }
  ServiceLevel level;
  level.queue_wait_p50_ms = Median(queue);
  level.queue_wait_tail_ms = Percentile(queue, tail_q);
  level.run_p50_ms = Median(run);
  level.run_tail_ms = Percentile(run, tail_q);
  level.shed = static_cast<double>(shed);
  return level;
}

void Layers::FillFromObs(const std::map<std::string, int64_t>& before,
                         const std::map<std::string, int64_t>& after,
                         const TraceSummary& trace) {
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  whatif_calls = delta("whatif.calls");
  whatif_hit_rate =
      whatif_calls > 0 ? delta("whatif.cache_hits") / whatif_calls : 0;
  whatif_miss_ms = trace.Total("whatif.optimize");
  // The highest of these percentiles that leaves >= 10 samples beyond it.
  for (double q : {0.99, 0.95, 0.9, 0.5}) {
    if (TailSupported(trace.whatif_miss_us.size(), q)) {
      whatif_miss_tail_us = Percentile(trace.whatif_miss_us, q);
      break;
    }
  }
  whatif_evictions = delta("whatif.cache_evictions");

  tuner_candidate_evals = delta("tuner.query.candidates_evaluated") +
                          delta("tuner.workload.candidates_evaluated");
  tuner_query_tune_self_ms = trace.Self("tuner.query_tune");
  tuner_comparator_decide_ms = trace.Total("tuner.comparator_decide");
  tuner_measurements = delta("tuner.measurements");
  tuner_measure_self_ms = trace.Self("tuner.measure");

  comparator_prime_ms = trace.Total("comparator.prime");
  featurize_plan_featurizations = delta("featurize.plan_featurizations");
  const double plan_lookups =
      featurize_plan_featurizations + delta("featurize.plan_cache_hits");
  featurize_plan_cache_hit_rate =
      plan_lookups > 0 ? delta("featurize.plan_cache_hits") / plan_lookups
                       : 0;
  for (const auto& [name, ms] : trace.total_ms) {
    if (name.rfind("ml.", 0) == 0 &&
        name.find(".predict") != std::string::npos) {
      ml_predict_ms += ms;
    }
  }
  // Batched rows plus single-row predicts (one comparator.model_label
  // span each).
  ml_predict_rows = delta("comparator.batched_pairs") +
                    static_cast<double>(trace.Count("comparator.model_label"));

  exec_row_ms = trace.exec_row_ms;
  exec_batch_ms = trace.exec_batch_ms;
  exec_batch_plans = delta("exec.vectorized_plans");
  exec_row_plans = delta("exec.plans_executed") - exec_batch_plans;
}

void Layers::AddTo(Report* r) const {
  r->Add("whatif.calls", whatif_calls, "count");
  r->Add("whatif.hit_rate", whatif_hit_rate, "frac");
  r->Add("whatif.miss_ms", whatif_miss_ms, "ms");
  r->Add("whatif.miss_tail_us", whatif_miss_tail_us, "us");
  r->Add("whatif.evictions", whatif_evictions, "count");
  r->Add("tuner.candidate_evals", tuner_candidate_evals, "count");
  r->Add("tuner.query_tune.self_ms", tuner_query_tune_self_ms, "ms");
  r->Add("tuner.comparator_decide_ms", tuner_comparator_decide_ms, "ms");
  r->Add("tuner.measurements", tuner_measurements, "count");
  r->Add("tuner.measure.self_ms", tuner_measure_self_ms, "ms");
  r->Add("comparator.prime_ms", comparator_prime_ms, "ms");
  r->Add("featurize.plan_featurizations", featurize_plan_featurizations,
         "count");
  r->Add("featurize.plan_cache_hit_rate", featurize_plan_cache_hit_rate,
         "frac");
  r->Add("ml.predict_ms", ml_predict_ms, "ms");
  r->Add("ml.predict_rows", ml_predict_rows, "count");
  r->Add("models.train_s", models_train_s, "s");
  r->Add("exec.row_ms", exec_row_ms, "ms");
  r->Add("exec.row_plans", exec_row_plans, "count");
  r->Add("exec.batch_ms", exec_batch_ms, "ms");
  r->Add("exec.batch_plans", exec_batch_plans, "count");
  r->Add("index.built", index_built, "count");
  const std::pair<const char*, const ServiceLevel*> levels[] = {
      {"", &service_mid}, {".low", &service_low}, {".high", &service_high}};
  for (const auto& [suffix, level] : levels) {
    const std::string s = suffix;
    r->Add("service.queue_wait_p50_ms" + s, level->queue_wait_p50_ms, "ms");
    r->Add("service.queue_wait_tail_ms" + s, level->queue_wait_tail_ms,
           "ms");
    r->Add("service.run_p50_ms" + s, level->run_p50_ms, "ms");
    r->Add("service.run_tail_ms" + s, level->run_tail_ms, "ms");
    r->Add("service.shed" + s, level->shed, "count");
  }
  r->Add("workloads.prepare_s", workloads_prepare_s, "s");
  r->Add("workloads.next_batch_us", workloads_next_batch_us, "us");
  r->Add("repo.save_ms", repo_save_ms, "ms");
  r->Add("repo.bytes", repo_bytes, "bytes");
  r->Add("gen.late_p99_ms", gen_late_p99_ms, "ms");
  r->Add("gen.late_max_ms", gen_late_max_ms, "ms");
  r->Add("obs.overhead_frac", obs_overhead_frac, "frac");
  r->Add("obs.trace_dropped", obs_trace_dropped, "count");
}

void SetTracing(bool on) {
  aimai::obs::Tracer().Clear();
  aimai::obs::Tracer().set_capacity(size_t{1} << 22);
  aimai::obs::SetEnabled(on);
  aimai::obs::SetTraceEnabled(on);
}

}  // namespace perfbench

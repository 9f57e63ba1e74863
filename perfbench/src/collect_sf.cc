// collect_sf: the `aimai_cli collect` path at SF scale, as a batch run.
//
// One repeat builds the tpch_sf database at SF 0.1 (set-up), runs §7.3
// collection with configs_per_query = 8 one query at a time (so each
// query's collection is a timed unit of work), saves the telemetry with
// SaveRepositoryToFile and loads it back. Repeats run until the collection
// phases cover --seconds (at least three, for the set-up median).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "common.h"
#include "models/repository_io.h"
#include "obs/metrics.h"
#include "workloads/collection.h"
#include "workloads/query_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace aimai;

constexpr double kSf = 0.1;
// The SF 0.1 dataset and its query instances come from one fixed dataset
// seed, the way dbgen's data is fixed; the run seed drives what collection
// samples (CollectionOptions::seed: the index subsets implemented).
constexpr uint64_t kDatasetSeed = 42;
constexpr int kConfigsPerQuery = 8;
constexpr double kTailQ = 0.8;
// Latency objective of collecting one query (goodput threshold).
constexpr double kQueryObjectiveMs = 5000;
constexpr double kLambda = 0.2;
constexpr double kNominalRepeatS = 7.5;
// Where the telemetry file goes, relative to the repository root run.py
// runs the perfbench binary in.
constexpr char kScratchDir[] = ".bench_build/scratch";

struct Repeat {
  double setup_s = 0;
  double collect_s = 0;
  double save_ms = 0;
  double repo_bytes = 0;
  double index_built = 0;
  std::vector<double> query_ms;
  size_t plans = 0;
  double base_cost = 0, best_cost = 0;
  int64_t configs = 0, regressed = 0;
};

/// One repeat; `seed` drives the collection's configuration sampling.
Repeat RunRepeat(uint64_t seed, const std::string& path) {
  Repeat rep;
  const int64_t t0 = NowNs();
  std::unique_ptr<BenchmarkDatabase> db;
  {
    auto gen = MakePreparedQueryStream(
        QueryStreamSpec().WithKind("tpch_sf").WithSf(kSf).WithSeed(
            kDatasetSeed));
    Check(gen.ok(), "tpch_sf build: " + gen.status().ToString());
    db = (*gen)->TakeDatabase();
  }
  rep.setup_s = NsToMs(NowNs() - t0) / 1e3;
  static bool sizes_printed = false;  // Once per process.
  if (!sizes_printed) {
    sizes_printed = true;
    std::fprintf(stderr,
                 "collect_sf sizes: %zu rows (lineitem %zu), %zu queries\n",
                 TotalRows(db.get()),
                 db->db()->table(db->db()->FindTable("lineitem")).num_rows(),
                 db->queries().size());
  }

  ExecutionDataRepository repo;
  const std::vector<QuerySpec> queries = db->queries();
  const int64_t c0 = NowNs();
  for (size_t i = 0; i < queries.size(); ++i) {
    CollectionOptions copts;
    copts.configs_per_query = kConfigsPerQuery;
    copts.seed = seed + static_cast<uint64_t>(i);
    db->queries() = {queries[i]};
    const int64_t q0 = NowNs();
    CollectExecutionData(db.get(), 0, copts, &repo);
    rep.query_ms.push_back(NsToMs(NowNs() - q0));
  }
  rep.collect_s = NsToMs(NowNs() - c0) / 1e3;
  db->queries() = queries;
  rep.plans = repo.num_plans();
  rep.index_built = static_cast<double>(db->indexes()->num_built());

  const int64_t s0 = NowNs();
  {
    obs::ScopedSpan span("bench.repo_save");
    const Status st = SaveRepositoryToFile(path, repo);
    Check(st.ok(), "save: " + st.ToString());
  }
  rep.save_ms = NsToMs(NowNs() - s0);
  rep.repo_bytes = static_cast<double>(std::filesystem::file_size(path));
  {
    ExecutionDataRepository loaded;
    RepositoryLoadStats stats;
    std::ifstream in(path, std::ios::binary);
    const Status st = LoadRepository(&in, &loaded, &stats);
    Check(st.ok(), "load: " + st.ToString());
    Check(stats.records_skipped == 0 && !stats.truncated,
          "saved repository loads back with skipped records");
    Check(loaded.num_plans() == repo.num_plans(),
          "saved repository loads back with a different plan count");
  }
  std::filesystem::remove(path);

  // Quality of what was collected: per query, the base configuration is
  // the first plan recorded; compare every other configuration with it.
  std::map<std::string, std::pair<double, double>> per_query;  // base, best
  for (size_t id = 0; id < repo.num_plans(); ++id) {
    const ExecutedPlan& p = repo.plan(static_cast<int>(id));
    auto it = per_query.find(p.query_name);
    if (it == per_query.end()) {
      per_query[p.query_name] = {p.exec_cost, p.exec_cost};
      continue;
    }
    it->second.second = std::min(it->second.second, p.exec_cost);
    ++rep.configs;
    if (p.exec_cost > (1 + kLambda) * it->second.first) ++rep.regressed;
  }
  for (const auto& [name, costs] : per_query) {
    rep.base_cost += costs.first;
    rep.best_cost += costs.second;
  }
  return rep;
}

}  // namespace

void RunCollectSf(const Args& args, Report* report) {
  const uint64_t seed = args.seed * 7919;
  std::filesystem::create_directories(kScratchDir);
  const std::string path = std::string(kScratchDir) + "/collect_sf." +
                           std::to_string(::getpid()) + ".repo";

  if (args.trace) {
    // Untraced, traced, untraced repeats of the same inputs; the overhead
    // compares the traced collection with the mean of the untraced ones.
    SetTracing(false);
    const Repeat plain = RunRepeat(seed, path);
    SetTracing(true);
    const auto before = CounterSnapshot();
    const Repeat traced = RunRepeat(seed, path);
    const auto after = CounterSnapshot();
    const auto events = obs::Tracer().Events();
    const int64_t dropped = obs::Tracer().dropped();
    SetTracing(false);
    const Repeat plain2 = RunRepeat(seed, path);
    for (const Repeat* r : {&traced, &plain2}) {
      Check(r->plans == plain.plans && r->best_cost == plain.best_cost,
            "collections of the same inputs differ");
    }
    Check(dropped == 0, "trace events dropped");

    Layers layers;
    layers.FillFromObs(before, after, SummarizeTrace(events));
    layers.index_built = traced.index_built;
    layers.workloads_prepare_s = traced.setup_s;
    layers.repo_save_ms = traced.save_ms;
    layers.repo_bytes = traced.repo_bytes;
    layers.obs_overhead_frac =
        traced.collect_s / (0.5 * (plain.collect_s + plain2.collect_s)) - 1.0;
    layers.obs_trace_dropped = static_cast<double>(dropped);
    layers.AddTo(report);
    report->attempted = static_cast<int64_t>(3 * plain.query_ms.size());
    return;
  }

  // A fixed number of repeats per --seconds (sized from the reference
  // machine's ~7.5 s per collection), each sampling afresh (seed + 1000 *
  // repeat), so one seed always measures the same work and a run averages
  // over several collections of the dataset.
  SetTracing(false);
  const size_t repeats = static_cast<size_t>(
      std::max(3.0, std::round(args.seconds / kNominalRepeatS)));
  std::vector<Repeat> reps;
  double timed_s = 0;
  for (size_t r = 0; r < repeats; ++r) {
    reps.push_back(RunRepeat(seed + 1000 * r, path));
    timed_s += reps.back().collect_s;
  }

  std::vector<double> latency, setup;
  size_t plans = 0;
  int64_t configs = 0, regressed = 0;
  double base = 0, best = 0;
  for (const Repeat& r : reps) {
    latency.insert(latency.end(), r.query_ms.begin(), r.query_ms.end());
    setup.push_back(r.setup_s);
    plans += r.plans;
    configs += r.configs;
    regressed += r.regressed;
    base += r.base_cost;
    best += r.best_cost;
  }
  Check(TailSupported(latency.size(), kTailQ),
        "too few queries for the p80 tail");
  int64_t within = 0;
  for (double ms : latency) within += ms <= kQueryObjectiveMs ? 1 : 0;
  const double tail = Percentile(latency, kTailQ);
  report->attempted = static_cast<int64_t>(latency.size());
  report->failed = 0;
  AddEndToEnd(report, EndToEnd{
                          .setup_s = Median(setup),
                          .throughput = static_cast<double>(plans) / timed_s,
                          .p50_ms = Median(latency),
                          .tail_ms = tail,
                          .tail_ms_low = tail,
                          .tail_ms_high = tail,
                          .slo_rate_per_s =
                              static_cast<double>(within) / timed_s,
                          .ok_frac = 1.0,
                          .cost_ratio = best / base,
                          .no_regress_frac =
                              1.0 - static_cast<double>(regressed) /
                                        static_cast<double>(configs),
                      });
}

}  // namespace perfbench

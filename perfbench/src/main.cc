// perfbench: the end-to-end benchmark binary.
//
//   perfbench --workload tune_model|collect_sf|serve_open --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures with instrumentation off and prints the end-to-end
// metrics; --trace 1 runs the same work untraced and then traced and
// prints the per-layer metrics. The last stdout line is one JSON object;
// a failed output check prints the reason to stderr, no result line, and
// exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace perfbench {

void AddEndToEnd(Report* r, const EndToEnd& e) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("throughput", e.throughput, "1/s");
  r->Add("p50_ms", e.p50_ms, "ms");
  r->Add("tail_ms", e.tail_ms, "ms");
  r->Add("tail_ms.low", e.tail_ms_low, "ms");
  r->Add("tail_ms.high", e.tail_ms_high, "ms");
  r->Add("slo_rate_per_s", e.slo_rate_per_s, "1/s");
  r->Add("ok_frac", e.ok_frac, "frac");
  r->Add("cost_ratio", e.cost_ratio, "ratio");
  r->Add("no_regress_frac", e.no_regress_frac, "frac");
  r->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

aimai::PairFeaturizer DefaultPairFeaturizer() {
  return aimai::PairFeaturizer(
      {aimai::Channel::kEstNodeCost, aimai::Channel::kLeafBytesWeighted},
      aimai::PairCombine::kPairDiffNormalized);
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload tune_model|collect_sf|"
               "serve_open --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (argc % 2 == 0) return Usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be > 0");
  // Resolve the shared pool's size before anything can create it.
  aimai::SetConfiguredThreads(perfbench::PoolThreads(args.workload));

  perfbench::Report report;
  try {
    if (args.workload == "tune_model") {
      perfbench::RunTuneModel(args, &report);
    } else if (args.workload == "collect_sf") {
      perfbench::RunCollectSf(args, &report);
    } else if (args.workload == "serve_open") {
      perfbench::RunServeOpen(args, &report);
    } else {
      return Usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const perfbench::CheckFailure& e) {
    std::fprintf(stderr, "check failed: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

// The benchmark's workloads and the end-to-end metrics they all report.
#ifndef AIMAI_PERFBENCH_WORKLOADS_H_
#define AIMAI_PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "featurize/pair_featurizer.h"

namespace perfbench {

/// The end-to-end metrics every workload prints (see perfbench/SPEC.md for
/// what each means on each workload).
struct EndToEnd {
  double setup_s = 0;
  double throughput = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_ms_low = 0;
  double tail_ms_high = 0;
  double slo_rate_per_s = 0;
  double ok_frac = 0;
  double cost_ratio = 0;
  double no_regress_frac = 0;
};
/// Adds `e` plus peak_rss_mb (read at the call).
void AddEndToEnd(Report* report, const EndToEnd& e);

/// The paper's default pair featurizer: EstNodeCost + LeafBytesWeighted
/// channels combined with pair_diff_normalized.
aimai::PairFeaturizer DefaultPairFeaturizer();

void RunTuneModel(const Args& args, Report* report);
void RunCollectSf(const Args& args, Report* report);
void RunServeOpen(const Args& args, Report* report);

}  // namespace perfbench

#endif  // AIMAI_PERFBENCH_WORKLOADS_H_

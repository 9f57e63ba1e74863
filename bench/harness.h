#ifndef AIMAI_BENCH_HARNESS_H_
#define AIMAI_BENCH_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "ml/metrics.h"
#include "ml/split.h"
#include "models/classifier_model.h"
#include "models/regressor_models.h"
#include "workloads/collection.h"

namespace aimai::bench {

/// Shared experiment configuration. Every benchmark binary reproduces one
/// table or figure of the paper on the same fifteen-database suite.
///
/// Environment knobs:
///   AIMAI_FULL=1   — full-size suite and paper-matching repeat counts
///                    (slower; default is a reduced but shape-preserving
///                    configuration).
///   AIMAI_QUICK=1  — smallest/fastest configuration (single repeats,
///                    smaller databases); for smoke runs on weak machines.
///   AIMAI_SEED=<n> — base seed (default 42).
///   AIMAI_METRICS=1 — print an observability metrics snapshot (counters,
///                    span latency histograms) to stderr at process exit.
struct HarnessOptions {
  uint64_t seed = 42;
  int scale_divisor = 2;      // 1 = full-size databases.
  int configs_per_query = 8;
  int max_pairs_per_query = 50;
  int repeats_random = 2;     // Paper: 5 for pair/plan/database splits.
  int repeats_query = 3;      // Paper: 10 for query splits.
  bool full = false;

  static HarnessOptions FromEnv();
};

/// The collected execution data for the whole suite.
struct SuiteData {
  std::vector<std::unique_ptr<BenchmarkDatabase>> suite;
  ExecutionDataRepository repo;
  std::vector<PlanPairRef> pairs;

  /// Group ids aligned with `pairs` for split-by-query / split-by-database.
  std::vector<int> QueryGroups() const;
  std::vector<int> DatabaseGroups() const;
  std::vector<std::pair<int, int>> PlanGroups() const;
};

/// Builds the suite and collects execution data (§7.3 protocol). Prints a
/// short progress note to stderr.
SuiteData BuildAndCollect(const HarnessOptions& options);

/// The paper's default featurization: EstNodeCost +
/// LeafWeightEstBytesWeightedSum channels, pair_diff_normalized.
PairFeaturizer DefaultFeaturizer();
std::vector<Channel> DefaultChannels();

/// Evaluates a predictor over test pairs; returns the confusion matrix.
ConfusionMatrix EvaluatePredictor(const SuiteData& data,
                                  const std::vector<size_t>& test_pair_idx,
                                  const PairLabelPredictor& predictor,
                                  const PairLabeler& labeler);

/// Trains `kind` on the given training pairs with the given featurizer and
/// returns the fitted classifier.
std::unique_ptr<Classifier> TrainClassifier(
    ModelKind kind, const SuiteData& data,
    const std::vector<size_t>& train_pair_idx,
    const PairFeaturizer& featurizer, const PairLabeler& labeler,
    uint64_t seed);

/// Leave-one-database-out split with `leak_k` plans per query of the
/// held-out database moved into training (§7.7/§7.8): training pairs are
/// all pairs of the other databases plus held-out pairs whose BOTH plans
/// are leaked; test pairs are held-out pairs whose both plans are
/// unleaked (mixed pairs are dropped).
SplitIndices HoldoutWithLeak(const SuiteData& data, int held_db, int leak_k,
                             Rng* rng);

/// F1 of the regression class.
double RegressionF1(const ConfusionMatrix& cm);

/// Prints a rendered table with a caption.
void PrintTable(const std::string& caption,
                const std::vector<std::vector<std::string>>& rows);

/// Formats a double with 3 decimals.
std::string F3(double v);

/// Wall-time overhead of an instrumented configuration over its baseline,
/// from interleaved pairs of timed passes.
struct PairedOverhead {
  std::vector<double> base_ms;          // Per pair, mean of its two passes.
  std::vector<double> instrumented_ms;  // Per pair, mean of its two passes.
  double median_ratio = 0;  // Median over pairs of instrumented / base.
  double overhead_pct() const { return 100.0 * (median_ratio - 1.0); }
};

/// Runs `pairs` mirrored pairs of passes — base, instrumented,
/// instrumented, base — with `pass(instrumented)` returning one pass's
/// wall ms, and reports the median of the per-pair ratios. The mirror
/// cancels a pass's position: a pass that runs right after another is
/// several percent faster on a 4-core VM, which decides a 2% bar when
/// each side always runs in the same slot. The median then discards the
/// pairs a scheduler hiccup hit, where best-of-N compares two single
/// lucky passes.
PairedOverhead MeasurePairedOverhead(int pairs,
                                     const std::function<double(bool)>& pass);

}  // namespace aimai::bench

#endif  // AIMAI_BENCH_HARNESS_H_

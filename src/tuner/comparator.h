#ifndef AIMAI_TUNER_COMPARATOR_H_
#define AIMAI_TUNER_COMPARATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "featurize/feature_cache.h"
#include "featurize/pair_featurizer.h"
#include "ml/model.h"
#include "models/labeler.h"

namespace aimai {

/// Observer of ML-comparator label decisions. Threading this sink through
/// ClassifierComparator lets the service's learning loop see every
/// decision and join the predicted labels against the ground truth
/// measured executions reveal. Fired once per distinct ordered pair
/// (label-memo hits do not repeat); implementations must be thread-safe
/// (tuner fan-out may decide pairs on several pool workers at once).
class ComparatorDecisionSink {
 public:
  virtual ~ComparatorDecisionSink() = default;
  /// `h1`/`h2` are the pair's plan ContentHash()es (estimate-only, so a
  /// later measured execution of the same plan joins back to the
  /// decision); `label` is the predicted PairLabel.
  virtual void OnDecision(uint64_t h1, uint64_t h2, int label) = 0;
};

/// The cost-comparison oracle the index tuner consults (§5). Given the
/// plan under the current configuration (p1) and the plan under a
/// hypothetical configuration (p2), answers the two gating questions:
/// would p2 regress, and would p2 improve.
class CostComparator {
 public:
  virtual ~CostComparator() = default;

  /// Whether adopting p2 is predicted to regress the query.
  virtual bool IsRegression(const PhysicalPlan& p1,
                            const PhysicalPlan& p2) const = 0;

  /// Whether adopting p2 is predicted to significantly improve the query.
  virtual bool IsImprovement(const PhysicalPlan& p1,
                             const PhysicalPlan& p2) const = 0;
};

/// Decision thresholds shared by the estimate-driven comparators. Kept as
/// a struct (not loose doubles) so session/service options can carry and
/// validate them as one unit.
struct ComparatorOptions {
  /// Improvements must beat the current plan by this fraction.
  /// 0 reproduces the plain tuner ("Opt"); 0.2 the thresholded "OptTr".
  double improvement_threshold = 0.0;
  /// Regressions are flagged beyond (1 + regression_threshold) x.
  double regression_threshold = 0.0;
};

/// The classical tuner's comparator: trust the optimizer's estimated
/// total costs (see ComparatorOptions for the threshold semantics).
class OptimizerComparator : public CostComparator {
 public:
  explicit OptimizerComparator(const ComparatorOptions& options)
      : improvement_threshold_(options.improvement_threshold),
        regression_threshold_(options.regression_threshold) {}
  explicit OptimizerComparator(double improvement_threshold = 0.0,
                               double regression_threshold = 0.0)
      : improvement_threshold_(improvement_threshold),
        regression_threshold_(regression_threshold) {}

  bool IsRegression(const PhysicalPlan& p1,
                    const PhysicalPlan& p2) const override {
    return p2.est_total_cost > (1.0 + regression_threshold_) *
                                   p1.est_total_cost;
  }
  bool IsImprovement(const PhysicalPlan& p1,
                     const PhysicalPlan& p2) const override {
    return p2.est_total_cost < (1.0 - improvement_threshold_) *
                                   p1.est_total_cost;
  }

 private:
  double improvement_threshold_;
  double regression_threshold_;
};

/// The ML-augmented comparator (§5): a label predictor (offline classifier
/// or adaptive strategy) gates regressions; on `unsure` the tuner falls
/// back to the optimizer's estimates, keeping the search making progress
/// on insignificant differences.
class ModelComparator : public CostComparator {
 public:
  /// `label_fn` maps a pair feature vector to a PairLabel.
  using LabelFn = std::function<int(const std::vector<double>&)>;

  ModelComparator(PairFeaturizer featurizer, LabelFn label_fn)
      : featurizer_(std::move(featurizer)), label_fn_(std::move(label_fn)) {}

  bool IsRegression(const PhysicalPlan& p1,
                    const PhysicalPlan& p2) const override {
    return Label(p1, p2) == kRegression;
  }
  bool IsImprovement(const PhysicalPlan& p1,
                     const PhysicalPlan& p2) const override {
    const int label = Label(p1, p2);
    if (label == kImprovement) return true;
    // Unsure: insignificant difference — defer to the optimizer.
    return label == kUnsure && p2.est_total_cost < p1.est_total_cost;
  }

  int Label(const PhysicalPlan& p1, const PhysicalPlan& p2) const {
    return label_fn_(featurizer_.Featurize(p1, p2));
  }

 private:
  PairFeaturizer featurizer_;
  LabelFn label_fn_;
};

/// ModelComparator over a trained Classifier, memoized: a pair is
/// featurized and labeled the first time IsRegression / IsImprovement
/// asks about it, and later questions about the same ordered pair (by
/// plan ContentHash) are answered from a bounded FIFO label memo. Labels
/// are pure functions of the pair, so the memo never changes an answer.
///
/// Thread-safe. Featurization goes through a PairFeatureCache's
/// plan-level memo, which walks each distinct plan's tree once even when
/// it appears in many pairs (one current plan against N candidates).
class ClassifierComparator : public CostComparator {
 public:
  ClassifierComparator(std::shared_ptr<const Classifier> classifier,
                       PairFeaturizer featurizer);

  bool IsRegression(const PhysicalPlan& p1,
                    const PhysicalPlan& p2) const override;
  bool IsImprovement(const PhysicalPlan& p1,
                     const PhysicalPlan& p2) const override;

  /// Predicted PairLabel for the ordered pair (memoized).
  int Label(const PhysicalPlan& p1, const PhysicalPlan& p2) const;

  /// Label-memo hits (decisions answered without touching the model).
  int64_t num_label_hits() const;

  /// Observer of every fresh label this comparator produces. Must outlive
  /// the comparator; nullptr (the default) disables. Set before the
  /// comparator is shared.
  void set_decision_sink(ComparatorDecisionSink* sink) { sink_ = sink; }

 private:
  /// Entries kept by the label memo (and by the plan-feature memo).
  static constexpr size_t kMemoCapacity = PairFeatureCache::kDefaultCapacity;

  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.first * 1099511628211ULL ^ k.second);
    }
  };

  std::shared_ptr<const Classifier> classifier_;
  PairFeaturizer featurizer_;
  ComparatorDecisionSink* sink_ = nullptr;
  mutable PairFeatureCache features_{kMemoCapacity};
  mutable std::mutex labels_mu_;
  mutable std::unordered_map<Key, int, KeyHash> labels_;
  mutable std::deque<Key> label_fifo_;
  mutable int64_t num_label_hits_ = 0;
};

}  // namespace aimai

#endif  // AIMAI_TUNER_COMPARATOR_H_

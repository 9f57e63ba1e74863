#include "tuner/comparator.h"

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

ClassifierComparator::ClassifierComparator(
    std::shared_ptr<const Classifier> classifier, PairFeaturizer featurizer)
    : classifier_(std::move(classifier)), featurizer_(std::move(featurizer)) {
  AIMAI_CHECK(classifier_ != nullptr);
}

bool ClassifierComparator::IsRegression(const PhysicalPlan& p1,
                                        const PhysicalPlan& p2) const {
  return Label(p1, p2) == kRegression;
}

bool ClassifierComparator::IsImprovement(const PhysicalPlan& p1,
                                         const PhysicalPlan& p2) const {
  const int label = Label(p1, p2);
  if (label == kImprovement) return true;
  // Unsure: insignificant difference — defer to the optimizer (same
  // semantics as ModelComparator).
  return label == kUnsure && p2.est_total_cost < p1.est_total_cost;
}

int ClassifierComparator::Label(const PhysicalPlan& p1,
                                const PhysicalPlan& p2) const {
  const Key key{p1.ContentHash(), p2.ContentHash()};
  {
    std::lock_guard<std::mutex> lock(labels_mu_);
    auto it = labels_.find(key);
    if (it != labels_.end()) {
      ++num_label_hits_;
      return it->second;
    }
  }
  // The label memo already catches repeated pairs, so only the plan-level
  // feature memo is consulted: it walks each distinct plan's tree once.
  const std::vector<double> x =
      featurizer_.Combine(*features_.GetPlanFeatures(featurizer_, p1),
                          *features_.GetPlanFeatures(featurizer_, p2));
  int label = kUnsure;
  {
    AIMAI_SPAN("comparator.model_label");
    label = classifier_->Predict(x.data());
  }
  {
    std::lock_guard<std::mutex> lock(labels_mu_);
    const auto [it, inserted] = labels_.emplace(key, label);
    if (!inserted) return it->second;  // A racer labeled it first.
    label_fifo_.push_back(key);
    while (labels_.size() > kMemoCapacity) {
      labels_.erase(label_fifo_.front());
      label_fifo_.pop_front();
    }
  }
  // Outside the memo lock: the sink takes its own (the learning loop's)
  // lock and must never nest under labels_mu_.
  if (sink_ != nullptr) sink_->OnDecision(key.first, key.second, label);
  return label;
}

int64_t ClassifierComparator::num_label_hits() const {
  std::lock_guard<std::mutex> lock(labels_mu_);
  return num_label_hits_;
}

}  // namespace aimai

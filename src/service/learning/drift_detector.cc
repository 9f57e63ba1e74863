#include "service/learning/drift_detector.h"

#include "common/check.h"
#include "models/labeler.h"
#include "obs/obs.h"

namespace aimai {

DriftDetector::DriftDetector(Options options) : options_(options) {
  AIMAI_CHECK(options_.window >= 1);
  AIMAI_CHECK(options_.min_observations >= 1);
}

DriftDetector::Window DriftDetector::Summarize(const TenantWindow& w) {
  int64_t tp = 0, fp = 0, fn = 0;
  for (const auto& [truth, predicted] : w.events) {
    const bool t = truth == static_cast<int8_t>(PairLabel::kRegression);
    const bool p = predicted == static_cast<int8_t>(PairLabel::kRegression);
    if (t && p) ++tp;
    if (!t && p) ++fp;
    if (t && !p) ++fn;
  }
  Window out;
  out.observations = static_cast<int64_t>(w.events.size());
  out.regressions = tp + fn;
  out.missed_regressions = fn;
  const double precision =
      tp + fp == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double recall =
      tp + fn == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
  out.f1 = precision + recall == 0
               ? 0.0
               : 2.0 * precision * recall / (precision + recall);
  out.miss_rate = tp + fn == 0
                      ? 0.0
                      : static_cast<double>(fn) / static_cast<double>(tp + fn);
  return out;
}

void DriftDetector::PublishGauges(const std::string& tenant,
                                  const Window& summary, TenantWindow* w) {
  if (!obs::Enabled()) return;
  if (w->f1_gauge == nullptr) {
    obs::MetricsRegistry& registry = obs::Registry();
    w->f1_gauge = registry.GetGauge("service.learning.drift.f1." + tenant);
    w->miss_rate_gauge =
        registry.GetGauge("service.learning.drift.miss_rate." + tenant);
    w->observations_gauge =
        registry.GetGauge("service.learning.drift.observations." + tenant);
  }
  w->f1_gauge->Set(summary.f1);
  w->miss_rate_gauge->Set(summary.miss_rate);
  w->observations_gauge->Set(static_cast<double>(summary.observations));
}

bool DriftDetector::Record(const std::string& tenant, int truth,
                           int predicted) {
  if (predicted < 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  TenantWindow& w = tenants_[tenant];
  w.events.emplace_back(static_cast<int8_t>(truth),
                        static_cast<int8_t>(predicted));
  while (w.events.size() > static_cast<size_t>(options_.window)) {
    w.events.pop_front();
  }
  const Window summary = Summarize(w);
  PublishGauges(tenant, summary, &w);
  if (summary.observations < options_.min_observations) return false;
  // Without true regressions in the window there is nothing to judge the
  // model's regression gate by — F1 of 0 would just mean "no support".
  if (summary.regressions == 0) return false;
  if (summary.f1 >= options_.min_f1 &&
      summary.miss_rate <= options_.max_miss_rate) {
    return false;
  }
  w.events.clear();  // Cooldown: the window must refill before refiring.
  ++triggers_;
  AIMAI_COUNTER_INC("service.learning.drift_triggers");
  return true;
}

DriftDetector::Window DriftDetector::Snapshot(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? Window() : Summarize(it->second);
}

void DriftDetector::Reset(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) it->second.events.clear();
}

int64_t DriftDetector::triggers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return triggers_;
}

}  // namespace aimai

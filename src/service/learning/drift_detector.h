#ifndef AIMAI_SERVICE_LEARNING_DRIFT_DETECTOR_H_
#define AIMAI_SERVICE_LEARNING_DRIFT_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

namespace aimai {

namespace obs {
class Gauge;
}  // namespace obs

/// Per-tenant drift detection over the live model's decisions. Where the
/// ModelRegistry's outcome windows only watch the raw regression *rate*
/// (and roll a bad publish back), this detector compares the model's
/// *predictions* against the ground truth the measured executions later
/// revealed, maintains a rolling regression-class F1 and
/// regression-miss-rate window per tenant, and decides when the live
/// model has drifted far enough that a retrain is warranted — the trigger
/// side of the loop, not just the rollback side.
///
/// Deterministic: Record is called from the tenant's serialized job
/// thread in harvest order, and a trigger clears the tenant's window so
/// it must refill to min_observations before it can fire again (a
/// built-in cooldown that needs no wall clock).
class DriftDetector {
 public:
  struct Options {
    /// Rolling window length per tenant.
    int window = 64;
    /// Observations required before the window's verdict is trusted.
    int min_observations = 24;
    /// Trigger when the regression-class F1 drops below this.
    double min_f1 = 0.5;
    /// Trigger when the fraction of true regressions the model missed
    /// exceeds this (the paper's expensive error class).
    double max_miss_rate = 0.5;
  };

  struct Window {
    int64_t observations = 0;
    int64_t regressions = 0;        // True regressions in the window.
    int64_t missed_regressions = 0; // Of those, predicted as something else.
    double f1 = 0.0;                // Regression-class F1 over the window.
    double miss_rate = 0.0;
  };

  explicit DriftDetector(Options options);

  DriftDetector(const DriftDetector&) = delete;
  DriftDetector& operator=(const DriftDetector&) = delete;

  /// Records one (truth, predicted) pair-label outcome for `tenant`;
  /// returns true when the tenant's window crossed a drift bar (the
  /// window is then cleared). `predicted` < 0 (unknown) is ignored.
  bool Record(const std::string& tenant, int truth, int predicted);

  Window Snapshot(const std::string& tenant) const;

  /// Clears the tenant's window (called after an adapted publish: the
  /// old model's mistakes must not indict the new one).
  void Reset(const std::string& tenant);

  int64_t triggers() const;

 private:
  struct TenantWindow {
    std::deque<std::pair<int8_t, int8_t>> events;  // (truth, predicted).
    // The tenant's drift gauges, registered on first publish (registry
    // handles are stable), so a Record builds no metric names.
    obs::Gauge* f1_gauge = nullptr;
    obs::Gauge* miss_rate_gauge = nullptr;
    obs::Gauge* observations_gauge = nullptr;
  };

  static Window Summarize(const TenantWindow& w);
  static void PublishGauges(const std::string& tenant, const Window& summary,
                            TenantWindow* w);

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, TenantWindow> tenants_;
  int64_t triggers_ = 0;
};

}  // namespace aimai

#endif  // AIMAI_SERVICE_LEARNING_DRIFT_DETECTOR_H_

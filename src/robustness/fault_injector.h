#ifndef AIMAI_ROBUSTNESS_FAULT_INJECTOR_H_
#define AIMAI_ROBUSTNESS_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/random.h"

namespace aimai {

/// The catalog of places where the execution/tuning stack can fail. Each
/// point is a permanent hook: production code asks `ShouldFail(point)` at
/// the moment the real failure would surface, and chaos/regression tests
/// arm the points with probabilities or deterministic schedules.
enum class FaultPoint : int {
  kQueryExecution = 0,    // An execution (or cost sample) is lost.
  kCostNoiseSpike,        // A cost sample spikes (noisy neighbor).
  kWhatIfTimeout,         // What-if optimization exceeds its deadline.
  kTelemetryCorruption,   // A telemetry record is corrupted on write.
  kRepositoryIo,          // Repository save/load stream I/O error.
  kModelInference,        // The ML comparator fails to produce a label.
  // Service-layer points (PR 6 chaos harness).
  kJobCrash,              // A tuning job's attempt dies mid-round.
  kJobStall,              // A tuning job stops making progress (hangs).
  kTornCheckpointWrite,   // A checkpoint write is torn before it lands.
  kModelPublishFailure,   // A model publish fails transiently.
};
inline constexpr int kNumFaultPoints = 10;

const char* FaultPointName(FaultPoint point);

/// Deterministic, seed-driven fault injection. Each fault point draws from
/// its own Rng stream (seeded from the injector seed and the point index),
/// so the schedule at one point is independent of how often other points
/// are consulted: same seed + same per-point call sequence => same faults.
///
/// A default-constructed injector is disabled; `ShouldFail` then costs one
/// relaxed atomic load and a predictable branch, which is why the hooks can
/// stay compiled in (see bench_robustness).
///
/// Thread-safe: one injector may be shared by several runner threads (the
/// chaos harness does). The armed path, the schedule setters and the
/// counters are serialized by one mutex; per-point schedules stay
/// deterministic for a given per-point call order.
class FaultInjector {
 public:
  /// Disabled: every probability 0, nothing ever fails.
  FaultInjector() { Reset(0); }
  explicit FaultInjector(uint64_t seed) { Reset(seed); }

  /// Re-seeds all streams and clears probabilities, schedules and counters.
  void Reset(uint64_t seed);

  /// Arms `point` to fail with probability `prob` per check.
  void set_probability(FaultPoint point, double prob);
  double probability(FaultPoint point) const {
    std::lock_guard<std::mutex> lock(mu_);
    return prob_[Idx(point)];
  }

  /// Deterministic schedule: the next `n` checks of `point` fail
  /// unconditionally (before any probability draw). Used by retry and
  /// breaker tests that need exact failure counts.
  void FailNext(FaultPoint point, int n);

  /// Consults the fault point. Increments the check counter; returns true
  /// (and counts an injection) when the fault fires.
  bool ShouldFail(FaultPoint point) {
    if (!enabled_.load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(mu_);
    return ShouldFailLocked(point);
  }

  /// Multiplicative disturbance for kCostNoiseSpike-style points: 1.0 when
  /// the fault does not fire, otherwise uniform in [min_factor, max_factor]
  /// from the point's own stream.
  double SpikeFactor(FaultPoint point, double min_factor = 2.0,
                     double max_factor = 8.0);

  int64_t checks(FaultPoint point) const {
    std::lock_guard<std::mutex> lock(mu_);
    return checks_[Idx(point)];
  }
  int64_t injected(FaultPoint point) const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_[Idx(point)];
  }
  int64_t total_injected() const;

 private:
  static size_t Idx(FaultPoint p) { return static_cast<size_t>(p); }
  // Both require `mu_` held.
  bool ShouldFailLocked(FaultPoint point);
  void RefreshEnabled();

  mutable std::mutex mu_;
  // Written under `mu_`; read without it on the disabled fast path.
  std::atomic<bool> enabled_{false};
  uint64_t seed_ = 0;
  std::array<double, kNumFaultPoints> prob_{};
  std::array<int, kNumFaultPoints> forced_failures_{};
  std::array<int64_t, kNumFaultPoints> checks_{};
  std::array<int64_t, kNumFaultPoints> injected_{};
  // Per-point independent streams, in FaultPoint order.
  std::vector<Rng> streams_;
};

}  // namespace aimai

#endif  // AIMAI_ROBUSTNESS_FAULT_INJECTOR_H_

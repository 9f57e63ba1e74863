#include "robustness/fault_injector.h"

#include "common/check.h"

namespace aimai {

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kQueryExecution:
      return "query_execution";
    case FaultPoint::kCostNoiseSpike:
      return "cost_noise_spike";
    case FaultPoint::kWhatIfTimeout:
      return "what_if_timeout";
    case FaultPoint::kTelemetryCorruption:
      return "telemetry_corruption";
    case FaultPoint::kRepositoryIo:
      return "repository_io";
    case FaultPoint::kModelInference:
      return "model_inference";
    case FaultPoint::kJobCrash:
      return "job_crash";
    case FaultPoint::kJobStall:
      return "job_stall";
    case FaultPoint::kTornCheckpointWrite:
      return "torn_checkpoint_write";
    case FaultPoint::kModelPublishFailure:
      return "model_publish_failure";
  }
  return "unknown";
}

void FaultInjector::Reset(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  prob_.fill(0.0);
  forced_failures_.fill(0);
  checks_.fill(0);
  injected_.fill(0);
  streams_.clear();
  streams_.reserve(kNumFaultPoints);
  for (int p = 0; p < kNumFaultPoints; ++p) {
    // 0x9e3779b97f4a7c15 (golden-ratio) decorrelates adjacent point seeds.
    streams_.emplace_back(seed + 0x9e3779b97f4a7c15ULL *
                                     static_cast<uint64_t>(p + 1));
  }
  enabled_.store(false, std::memory_order_relaxed);
}

void FaultInjector::set_probability(FaultPoint point, double prob) {
  AIMAI_CHECK(prob >= 0.0 && prob <= 1.0);
  std::lock_guard<std::mutex> lock(mu_);
  prob_[Idx(point)] = prob;
  RefreshEnabled();
}

void FaultInjector::FailNext(FaultPoint point, int n) {
  AIMAI_CHECK(n >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  forced_failures_[Idx(point)] = n;
  RefreshEnabled();
}

void FaultInjector::RefreshEnabled() {
  bool enabled = false;
  for (int p = 0; p < kNumFaultPoints; ++p) {
    if (prob_[static_cast<size_t>(p)] > 0.0 ||
        forced_failures_[static_cast<size_t>(p)] > 0) {
      enabled = true;
      break;
    }
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool FaultInjector::ShouldFailLocked(FaultPoint point) {
  const size_t i = Idx(point);
  ++checks_[i];
  if (forced_failures_[i] > 0) {
    --forced_failures_[i];
    if (forced_failures_[i] == 0) RefreshEnabled();
    ++injected_[i];
    return true;
  }
  if (prob_[i] <= 0.0) return false;
  if (streams_[i].Bernoulli(prob_[i])) {
    ++injected_[i];
    return true;
  }
  return false;
}

double FaultInjector::SpikeFactor(FaultPoint point, double min_factor,
                                  double max_factor) {
  if (!enabled_.load(std::memory_order_relaxed)) return 1.0;
  // The fire decision and the factor draw share one critical section, so
  // the point's stream is consumed in one piece per call.
  std::lock_guard<std::mutex> lock(mu_);
  if (!ShouldFailLocked(point)) return 1.0;
  return streams_[Idx(point)].Uniform(min_factor, max_factor);
}

int64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (int64_t n : injected_) total += n;
  return total;
}

}  // namespace aimai

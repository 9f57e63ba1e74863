#ifndef AIMAI_SERVICE_LEARNING_LEARNING_LOOP_H_
#define AIMAI_SERVICE_LEARNING_LEARNING_LOOP_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/job_queue.h"
#include "service/learning/drift_detector.h"
#include "service/learning/feedback_store.h"
#include "service/learning/learning_options.h"
#include "service/model_registry.h"
#include "tuner/comparator.h"

namespace aimai {

class TuningService;
class Session;

/// Queue-lane suffix of retrain jobs: tenant names reject control
/// characters, so "<tenant>\x1eretrain" can never collide with a real
/// session lane — retrains run concurrently with (and never serialize
/// against) the tenant's own tuning jobs.
inline const char* kRetrainLaneSuffix() { return "\x1eretrain"; }

/// Registry name an adapted model is published under: the base model name
/// plus a tenant suffix no user-supplied model name can contain. Each
/// session resolves its adapted name first and falls back to the shared
/// base model, which is what lets one tenant pin an adapted version while
/// every other tenant keeps the offline model.
std::string AdaptedModelName(const std::string& base,
                             const std::string& tenant);

/// The train-on-executions loop (paper §4.3 at service scale), owned by
/// TuningService when ServiceOptions::learning.enabled:
///
///   harvest   Session::RunContinuousJob passes an AdaptHook; after each
///             iteration's measurement lands in the tenant repo, Harvest
///             pairs the new plan with recent plans of the same query,
///             labels the pairs from measured costs (PairLabeler), joins
///             the live model's predicted label from the comparator
///             decision log, and feeds FeedbackStore + DriftDetector.
///   retrain   A drift trigger (or retrain_after rows) submits a
///             JobType::kRetrain job on the tenant's retrain lane at
///             priority 0 — background work that never starves tuning
///             jobs, is cancellable, and dies cleanly under drain.
///   publish   The retrain trains an AdaptedPairClassifier over the
///             harvested train split, gates it against the shared offline
///             model on the tenant holdout (F1 of the regression class),
///             and publishes through ModelRegistry::PublishValidated
///             under the tenant-adapted name.
///   pickup    Session::MakeComparator calls BarrierFor first: an
///             in-flight retrain finishes (stolen inline if still
///             queued) before the comparator snapshots, so the iteration
///             at which the adapted model takes over is deterministic
///             for any runner/thread count.
///
/// Determinism: harvest runs on the tenant's serialized job thread in
/// repo order, reservoir eviction and forest training are seeded, and
/// the barrier pins the publish/pickup interleaving — the whole loop is
/// bit-identical across runs and thread counts under a fixed seed.
class LearningLoop {
 public:
  struct TenantStats {
    int64_t rows_harvested = 0;
    int64_t drift_triggers = 0;
    int64_t retrains_submitted = 0;
    int64_t retrains_completed = 0;
    int64_t retrains_cancelled = 0;
    int64_t publishes = 0;
    int64_t publish_skipped = 0;
    int adapted_version = 0;       // 0 = never published.
    double last_offline_f1 = -1.0; // Holdout F1 at the last retrain.
    double last_adapted_f1 = -1.0;
  };

  LearningLoop(TuningService* service, LearningOptions options);

  LearningLoop(const LearningLoop&) = delete;
  LearningLoop& operator=(const LearningLoop&) = delete;

  const LearningOptions& options() const { return options_; }

  /// The comparator decision sink of `tenant` (stable address for the
  /// service lifetime; safe to hand to every comparator the session
  /// builds).
  ComparatorDecisionSink* SinkFor(const std::string& tenant);

  /// Model resolution for a session: the tenant-adapted snapshot when one
  /// is published, the shared base model otherwise.
  std::shared_ptr<const ModelSnapshot> ResolveModel(
      const std::string& base, const std::string& tenant) const;

  /// Blocks until the tenant's in-flight retrain (if any) is terminal. A
  /// retrain still sitting in the queue is claimed and run inline on the
  /// calling runner thread — deadlock-free even with one runner, and the
  /// pickup boundary never depends on background scheduling.
  void BarrierFor(const std::string& tenant);

  /// Harvest hook, called from the tenant's serialized job thread after
  /// each continuous iteration records its measurement. Feeds the store
  /// and the drift detector, and submits a retrain when triggered.
  void Harvest(Session* session);

  /// Retrain job body (Session::RunJob dispatches kRetrain here).
  void RunRetrainJob(Session* session, TuningJob* job, JobPhase* phase,
                     Status* status);

  /// Terminal hook for kRetrain jobs (clears the in-flight slot so later
  /// triggers can fire again even when the retrain was cancelled/shed).
  void OnRetrainTerminal(const TuningJob& job, JobPhase phase);

  TenantStats StatsFor(const std::string& tenant) const;

  FeedbackStore& feedback() { return feedback_; }
  DriftDetector& drift() { return drift_; }

 private:
  /// Bounded predicted-label log keyed by the pair's plan content hashes;
  /// written by comparator decisions, read back at harvest time.
  ///
  /// Every fresh comparator label is reported, on the tuning job's
  /// thread, but harvest reads back only pairs of executed plans. So a
  /// report only appends to `pending_`; the batch is applied to the table,
  /// in report order, before the next lookup — one pass over a warm table
  /// instead of one cold insert per decision, with identical contents.
  class DecisionLog : public ComparatorDecisionSink {
   public:
    void OnDecision(uint64_t h1, uint64_t h2, int label) override;
    /// -1 when the pair was never decided (or already evicted).
    int Lookup(uint64_t h1, uint64_t h2);

   private:
    using Key = std::pair<uint64_t, uint64_t>;
    struct KeyHash {
      size_t operator()(const Key& k) const {
        return static_cast<size_t>(k.first * 1099511628211ULL ^ k.second);
      }
    };
    static constexpr size_t kCapacity = 4096;

    /// Caller must hold mu_.
    void ApplyPendingLocked();

    std::mutex mu_;
    std::vector<std::pair<Key, int>> pending_;
    std::unordered_map<Key, int, KeyHash> labels_;
    std::deque<Key> fifo_;
  };

  struct TenantState {
    /// Repo watermark: plans already harvested. Touched only by the
    /// tenant's serialized job thread.
    size_t harvested_plans = 0;
    int64_t rows_since_retrain = 0;
    /// Retrain count; salts the per-retrain training seed.
    int retrain_ordinal = 0;
    /// At most one in-flight retrain per tenant (guarded by mu_).
    std::shared_ptr<TuningJob> inflight;
    DecisionLog log;
    TenantStats stats;  // Guarded by mu_.
  };

  /// Stable per-tenant state (created on first use).
  TenantState* StateFor(const std::string& tenant);

  void SubmitRetrain(Session* session, TenantState* ts);

  TuningService* const service_;
  const LearningOptions options_;
  FeedbackStore feedback_;
  DriftDetector drift_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
};

}  // namespace aimai

#endif  // AIMAI_SERVICE_LEARNING_LEARNING_LOOP_H_

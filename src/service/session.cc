#include "service/session.h"

#include <chrono>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "tuner/comparator.h"

namespace aimai {

Session::Session(TuningService* service, SessionOptions options,
                 std::shared_ptr<PlanCacheDomain> domain)
    : service_(service),
      options_(std::move(options)),
      env_(options_.env),
      health_(options_.name, service->options_.session_breaker) {
  // The session's optimizer shares the service-wide cache domain under
  // this session's namespace; the caller-provided env keeps everything
  // else (executor, index manager, noise RNG) private to the tenant.
  what_if_ = std::make_unique<WhatIfOptimizer>(
      env_.db, env_.stats, PlanEnumerator::Options(), std::move(domain),
      options_.name);
  env_.what_if = what_if_.get();
  candidates_ = std::make_unique<CandidateGenerator>(env_.db, env_.stats);
}

StatusOr<std::shared_ptr<TuningJob>> Session::Submit(
    std::shared_ptr<TuningJob> job) {
  AIMAI_RETURN_IF_ERROR(service_->Submit(job));
  return job;
}

StatusOr<std::shared_ptr<TuningJob>> Session::TuneQuery(
    const QuerySpec& query, const Configuration& base) {
  AIMAI_RETURN_IF_ERROR(what_if_->ValidateQuery(query));
  auto job = service_->NewJob(JobType::kQueryTuning, this);
  job->query_input = query;
  job->base_config = base;
  return Submit(std::move(job));
}

StatusOr<std::shared_ptr<TuningJob>> Session::TuneWorkload(
    std::vector<WorkloadQuery> workload, const Configuration& base) {
  if (workload.empty()) {
    return Status::InvalidArgument("workload is empty");
  }
  for (const WorkloadQuery& wq : workload) {
    AIMAI_RETURN_IF_ERROR(what_if_->ValidateQuery(wq.query));
    if (wq.weight < 0) {
      return Status::InvalidArgument("workload weight is negative");
    }
  }
  auto job = service_->NewJob(JobType::kWorkloadTuning, this);
  job->workload_input = std::move(workload);
  job->base_config = base;
  return Submit(std::move(job));
}

StatusOr<std::shared_ptr<TuningJob>> Session::TuneContinuous(
    const QuerySpec& query, const Configuration& initial) {
  ContinuousTuner::QueryState state;
  state.current = initial;
  return ResumeContinuous(query, std::move(state));
}

StatusOr<std::shared_ptr<TuningJob>> Session::ResumeContinuous(
    const QuerySpec& query, ContinuousTuner::QueryState state) {
  AIMAI_RETURN_IF_ERROR(what_if_->ValidateQuery(query));
  if (state.finished) {
    return Status::InvalidArgument(
        "continuous-tuning state is already finished");
  }
  auto job = service_->NewJob(JobType::kContinuousTuning, this);
  job->query_input = query;
  job->start_state = std::move(state);
  return Submit(std::move(job));
}

Status Session::WriteCheckpoint(const TuningJob& job,
                                std::ostream* out) const {
  if (job.type() != JobType::kContinuousTuning) {
    return Status::InvalidArgument("only continuous jobs checkpoint");
  }
  if (job.phase() != JobPhase::kCheckpointed) {
    return Status::FailedPrecondition(
        "job is not checkpointed (drain it first)");
  }
  ContinuousCheckpoint ckpt;
  ckpt.session_name = options_.name;
  ckpt.query_name = job.query_input.name;
  ckpt.state = job.outputs().continuous_state;
  return SaveContinuousCheckpoint(out, ckpt, repo_);
}

std::unique_ptr<CostComparator> Session::MakeComparator(
    int* model_version, std::string* model_name) const {
  if (model_version != nullptr) *model_version = 0;
  if (model_name != nullptr) model_name->clear();
  if (options_.model.empty()) {
    return std::make_unique<OptimizerComparator>(options_.comparator);
  }
  LearningLoop* learning = service_->learning();
  std::shared_ptr<const ModelSnapshot> snapshot;
  if (learning != nullptr) {
    // Pickup barrier: an in-flight retrain publishes (or dies) before the
    // resolve below, so the iteration at which the tenant-adapted model
    // takes over does not depend on background scheduling.
    learning->BarrierFor(options_.name);
    snapshot = learning->ResolveModel(options_.model, options_.name);
  } else {
    // Latest published version; Publish() between two calls is the hot
    // swap — the snapshot in hand stays coherent for the whole round.
    snapshot = service_->models().Snapshot(options_.model);
  }
  AIMAI_CHECK_MSG(snapshot != nullptr,
                  "model disappeared from the registry");
  if (model_version != nullptr) *model_version = snapshot->version;
  if (model_name != nullptr) *model_name = snapshot->name;
  auto comparator = std::make_unique<ClassifierComparator>(
      snapshot->classifier, snapshot->featurizer);
  if (learning != nullptr) {
    comparator->set_decision_sink(learning->SinkFor(options_.name));
  }
  return comparator;
}

void Session::StallUntilRescued(TuningJob* job) {
  AIMAI_SPAN("service.job.stall");
  // Wedged: the loop deliberately reads the flag through the
  // non-heartbeat peek, so the watchdog sees a frozen poll counter and
  // declares the attempt stalled. The time cap is a safety net for runs
  // without stall detection enabled.
  const auto start = std::chrono::steady_clock::now();
  while (!job->token()->cancel_requested() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Session::RunJob(TuningJob* job) {
  if (job->token()->cancelled() && !job->drain_requested()) {
    job->Finish(JobPhase::kCancelled,
                Status::Cancelled("job cancelled before it started"));
    return;
  }
  // Tenant gate: a quarantined session's jobs are rejected here, before
  // any shared structure (cache domain, pool, registry) is touched —
  // that is what keeps other tenants bit-identical. The rejection is not
  // a health outcome; while open, the breaker cools down per denied call.
  if (!health_.AllowJob()) {
    job->Finish(JobPhase::kFailed,
                Status::Unavailable("session '" + options_.name +
                                    "' is quarantined; job rejected"));
    return;
  }
  if (!options_.model.empty() &&
      service_->models().Snapshot(options_.model) == nullptr) {
    if (job->type() != JobType::kRetrain) health_.RecordOutcome(false);
    job->Finish(JobPhase::kFailed,
                Status::FailedPrecondition("session model '" +
                                           options_.model +
                                           "' is not published"));
    return;
  }

  FaultInjector* faults = service_->options_.faults;
  // Injected crash for one-shot jobs: the attempt's token fires before
  // the tuner starts, so it dies at its first cancellation poll with
  // nothing half-written. Continuous jobs crash mid-round instead (the
  // comparator factory injects), exercising the resume-from-state path.
  if (faults != nullptr && job->type() != JobType::kContinuousTuning &&
      faults->ShouldFail(FaultPoint::kJobCrash)) {
    job->CountFaultEvent();
    job->RequestCrash();
  }
  job->MarkRunning();
  if (faults != nullptr && faults->ShouldFail(FaultPoint::kJobStall)) {
    job->CountFaultEvent();
    StallUntilRescued(job);
  }

  JobPhase phase = JobPhase::kFailed;
  Status status = Status::Internal("job attempt produced no result");
  switch (job->type()) {
    case JobType::kQueryTuning:
      RunQueryJob(job, &phase, &status);
      break;
    case JobType::kWorkloadTuning:
      RunWorkloadJob(job, &phase, &status);
      break;
    case JobType::kContinuousTuning:
      RunContinuousJob(job, &phase, &status);
      break;
    case JobType::kRetrain:
      service_->learning()->RunRetrainJob(this, job, &phase, &status);
      break;
  }
  FinishAttempt(job, phase, std::move(status));
}

void Session::FinishAttempt(TuningJob* job, JobPhase phase, Status status) {
  const bool timed_out = job->timed_out();
  const bool crashed = job->crashed();
  // Background retrains are service work, not tenant work: their failures
  // (data starvation, chaos kills) never count toward the tenant breaker.
  const bool health_counts = job->type() != JobType::kRetrain;
  if ((timed_out || crashed) && !job->user_cancelled()) {
    // The attempt was killed by the watchdog or a crash, not by the
    // caller. (Fault *events* are counted at the injection/escalation
    // sites; here the attempt is retried within the budget or finished.)
    if (health_counts) health_.RecordOutcome(false);
    const bool service_draining =
        service_->draining_.load(std::memory_order_acquire);
    if (!job->drain_requested() && !service_draining &&
        job->attempt() < job->max_attempts() && job->PrepareRetry()) {
      // Phase is back to kQueued; the runner loop requeues the job with
      // accounted backoff. Callers' Wait() handles stay valid.
      return;
    }
    if (timed_out) {
      job->Finish(JobPhase::kTimedOut,
                  Status::DeadlineExceeded(
                      "job exceeded its " +
                      std::to_string(job->deadline_ms()) +
                      " ms deadline (attempt " +
                      std::to_string(job->attempt()) + " of " +
                      std::to_string(job->max_attempts()) + ")"));
    } else {
      job->Finish(JobPhase::kFailed,
                  Status::Unavailable("job crashed (attempt " +
                                      std::to_string(job->attempt()) +
                                      " of " +
                                      std::to_string(job->max_attempts()) +
                                      ")"));
    }
    return;
  }

  if (phase == JobPhase::kDone || phase == JobPhase::kCheckpointed) {
    if (health_counts) health_.RecordOutcome(true);
  } else if (phase == JobPhase::kFailed) {
    if (health_counts) health_.RecordOutcome(false);
  }
  // kCancelled is the caller's choice, not a tenant fault: no outcome.
  job->Finish(phase, std::move(status));
}

void Session::RunQueryJob(TuningJob* job, JobPhase* phase, Status* status) {
  QueryLevelTuner::Options qopts;
  qopts.max_new_indexes = options_.max_new_indexes;
  qopts.storage_budget_bytes = options_.storage_budget_bytes;
  qopts.pool = service_->pool();
  qopts.cancel = job->token();
  QueryLevelTuner tuner(env_.db, env_.what_if, candidates_.get(), qopts);
  std::unique_ptr<CostComparator> comparator = MakeComparator();
  StatusOr<QueryTuningResult> result =
      tuner.TryTune(job->query_input, job->base_config, *comparator);
  if (!result.ok()) {
    *phase = result.status().code() == StatusCode::kCancelled
                 ? JobPhase::kCancelled
                 : JobPhase::kFailed;
    *status = result.status();
    return;
  }
  job->mutable_outputs()->query = std::move(result).value();
  *phase = JobPhase::kDone;
  *status = Status::Ok();
}

void Session::RunWorkloadJob(TuningJob* job, JobPhase* phase, Status* status) {
  WorkloadLevelTuner::Options wopts;
  wopts.max_new_indexes = options_.max_new_indexes;
  wopts.storage_budget_bytes = options_.storage_budget_bytes;
  wopts.pool = service_->pool();
  wopts.cancel = job->token();
  WorkloadLevelTuner tuner(env_.db, env_.what_if, candidates_.get(), wopts);
  std::unique_ptr<CostComparator> comparator = MakeComparator();
  StatusOr<WorkloadTuningResult> result =
      tuner.TryTune(job->workload_input, job->base_config, *comparator);
  if (!result.ok()) {
    *phase = result.status().code() == StatusCode::kCancelled
                 ? JobPhase::kCancelled
                 : JobPhase::kFailed;
    *status = result.status();
    return;
  }
  job->mutable_outputs()->workload = std::move(result).value();
  *phase = JobPhase::kDone;
  *status = Status::Ok();
}

void Session::RunContinuousJob(TuningJob* job, JobPhase* phase,
                               Status* status) {
  ContinuousTuner::Options copts;
  copts.iterations = options_.iterations;
  copts.max_indexes_per_iteration = options_.max_new_indexes;
  copts.regression_threshold = options_.comparator.regression_threshold;
  copts.stop_on_regression = options_.stop_on_regression;
  copts.storage_budget_bytes = options_.storage_budget_bytes;
  copts.verify_reverts = options_.verify_reverts;
  copts.quarantine_after = options_.quarantine_after;
  copts.pool = service_->pool();
  copts.cancel = job->token();
  ContinuousTuner tuner(&env_, candidates_.get(), copts);

  ContinuousTuner::QueryState* state =
      &job->mutable_outputs()->continuous_state;
  *state = std::move(job->start_state);
  const size_t base_iterations = state->iterations.size();

  // The factory re-snapshots the registry each iteration: a Publish()
  // mid-run is picked up at the next iteration boundary (hot swap). The
  // version behind each iteration is remembered so its outcome can feed
  // the registry's drift detector. An injected kJobCrash fires here —
  // genuinely mid-round — and the loop unwinds at the next boundary with
  // the iteration unspent and the state resumable.
  FaultInjector* faults = service_->options_.faults;
  LearningLoop* learning = service_->learning();
  std::vector<int> versions;
  std::vector<std::string> names;
  ContinuousTuner::AdaptHook adapt_hook;
  if (learning != nullptr && !options_.model.empty()) {
    // Execution-feedback harvest: runs on this (the tenant's serialized
    // job) thread after each iteration's measurement lands in the repo.
    adapt_hook = [this, learning] { learning->Harvest(this); };
  }
  const ContinuousTuner::QueryTrace trace = tuner.TuneQueryResumable(
      job->query_input, state,
      [this, job, faults, &versions, &names] {
        if (faults != nullptr &&
            faults->ShouldFail(FaultPoint::kJobCrash)) {
          job->CountFaultEvent();
          job->RequestCrash();
        }
        int version = 0;
        std::string name;
        std::unique_ptr<CostComparator> comparator =
            MakeComparator(&version, &name);
        versions.push_back(version);
        names.push_back(std::move(name));
        return comparator;
      },
      &repo_, adapt_hook);
  job->mutable_outputs()->trace = trace;

  // Post-publish drift feedback: each completed iteration reports whether
  // it regressed under the model (name, version) that actually gated it —
  // with the learning loop on, that may be this tenant's adapted model.
  if (!options_.model.empty()) {
    for (size_t i = base_iterations; i < state->iterations.size(); ++i) {
      const size_t k = i - base_iterations;
      if (k >= versions.size()) break;
      service_->models().ReportOutcome(names[k], versions[k], options_.name,
                                       state->iterations[i].regressed);
    }
  }

  if (state->finished) {
    *phase = JobPhase::kDone;
    *status = Status::Ok();
  } else if (job->drain_requested() && !job->timed_out() && !job->crashed()) {
    AIMAI_COUNTER_INC("service.jobs_checkpointed");
    *phase = JobPhase::kCheckpointed;
    *status = Status::Ok();
  } else {
    *phase = JobPhase::kCancelled;
    *status = Status::Cancelled("continuous tuning cancelled at iteration " +
                                std::to_string(state->next_iteration));
  }
}

}  // namespace aimai

#include "service/tuning_server.hpp"

#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "service/service_objective.hpp"
#include "tuners/registry.hpp"

namespace tunio::service {

namespace {

/// Cached registry handles (see PfsMetrics for the pattern rationale).
struct ServerMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& cancelled;
  obs::Counter& failed;
  obs::Gauge& running;

  static ServerMetrics& get() {
    static ServerMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new ServerMetrics{
          registry.counter("service.server.jobs_submitted"),
          registry.counter("service.server.jobs_completed"),
          registry.counter("service.server.jobs_cancelled"),
          registry.counter("service.server.jobs_failed"),
          registry.gauge("service.server.jobs_running"),
      };
    }();
    return *metrics;
  }
};

/// What a terminal job gives up: its objective, which may hold a recorded
/// trace and memo tables, and its stopper. Taken from the spec, then
/// destroyed outside `mutex_`.
struct Releasable {
  std::shared_ptr<tuner::Objective> objective;
  tuner::Stopper stopper;
};

Releasable take_releasable(JobSpec& spec) {
  return {std::exchange(spec.objective, nullptr),
          std::exchange(spec.stopper, nullptr)};
}

}  // namespace

std::string job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

TuningServer::TuningServer(const cfg::ConfigSpace& space, ServerOptions options)
    : space_(space),
      options_(options),
      engine_(options.engine),
      cache_(options.cache) {
  TUNIO_CHECK_MSG(options_.max_concurrent_jobs > 0,
                  "server needs at least one job slot");
  schedulers_.reserve(options_.max_concurrent_jobs);
  for (unsigned i = 0; i < options_.max_concurrent_jobs; ++i) {
    schedulers_.emplace_back([this] { scheduler_loop(); });
  }
}

TuningServer::~TuningServer() {
  std::vector<Releasable> released;  // destroyed after mutex_ is released
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Queued jobs will never run; running jobs get a cancel request and
    // finish their current generation.
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kQueued) {
        job->state = JobState::kCancelled;
        job->snapshot.state = JobState::kCancelled;
        ++jobs_cancelled_;
        released.push_back(take_releasable(job->spec));
      }
      job->cancel_requested.store(true, std::memory_order_relaxed);
    }
    pending_.clear();
  }
  job_ready_.notify_all();
  job_update_.notify_all();
  for (std::thread& t : schedulers_) t.join();
}

JobId TuningServer::submit(JobSpec spec) {
  TUNIO_CHECK_MSG(spec.objective != nullptr, "job needs an objective");
  TUNIO_CHECK_MSG(tuners::is_backend(spec.backend),
                  "unknown tuner backend '" + spec.backend + "'");
  if (spec.fingerprint == 0) {
    std::vector<std::size_t> chars(spec.name.begin(), spec.name.end());
    spec.fingerprint = derive_stream(0x5E21'1CE0, hash_indices(chars));
  }
  JobId id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TUNIO_CHECK_MSG(!stopping_, "server is shutting down");
    id = next_id_++;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = std::move(spec);
    job->snapshot.id = id;
    job->snapshot.name = job->spec.name;
    job->snapshot.backend = job->spec.backend;
    jobs_.emplace(id, std::move(job));
    pending_.push_back(id);
  }
  ServerMetrics::get().submitted.add(1);
  job_ready_.notify_one();
  return id;
}

TuningServer::Job& TuningServer::job_ref(JobId id) {
  auto it = jobs_.find(id);
  TUNIO_CHECK_MSG(it != jobs_.end(), "unknown job id");
  return *it->second;
}

const TuningServer::Job& TuningServer::job_ref(JobId id) const {
  auto it = jobs_.find(id);
  TUNIO_CHECK_MSG(it != jobs_.end(), "unknown job id");
  return *it->second;
}

bool TuningServer::cancel(JobId id) {
  Releasable released;  // destroyed after mutex_ is released
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  switch (job.state) {
    case JobState::kQueued: {
      job.state = JobState::kCancelled;
      job.snapshot.state = JobState::kCancelled;
      job.cancel_requested.store(true, std::memory_order_relaxed);
      released = take_releasable(job.spec);
      ++jobs_cancelled_;
      for (auto p = pending_.begin(); p != pending_.end(); ++p) {
        if (*p == id) {
          pending_.erase(p);
          break;
        }
      }
      job_update_.notify_all();
      return true;
    }
    case JobState::kRunning:
      job.cancel_requested.store(true, std::memory_order_relaxed);
      return true;
    case JobState::kDone:
    case JobState::kCancelled:
    case JobState::kFailed:
      return false;
  }
  return false;
}

JobProgress TuningServer::progress(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return job_ref(id).snapshot;
}

tuner::TuningResult TuningServer::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job& job = job_ref(id);
  job_update_.wait(lock, [&job] {
    return job.state == JobState::kDone || job.state == JobState::kCancelled ||
           job.state == JobState::kFailed;
  });
  if (job.state == JobState::kFailed) {
    throw Error("job '" + job.spec.name + "' failed: " + job.snapshot.error);
  }
  return job.result.value_or(tuner::TuningResult{});
}

void TuningServer::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  job_update_.wait(lock, [this] {
    for (const auto& [id, job] : jobs_) {
      if (job->state == JobState::kQueued || job->state == JobState::kRunning) {
        return false;
      }
    }
    return true;
  });
}

TuningServer::ServiceStats TuningServer::stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.jobs_submitted = next_id_ - 1;
    stats.jobs_completed = jobs_completed_;
    stats.jobs_cancelled = jobs_cancelled_;
    stats.jobs_failed = jobs_failed_;
  }
  stats.engine_evaluations = engine_.tasks_completed();
  stats.workers = engine_.workers();
  stats.cache = cache_.stats();
  return stats;
}

void TuningServer::scheduler_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      const JobId id = pending_.front();
      pending_.pop_front();
      job = &job_ref(id);
      job->state = JobState::kRunning;
      job->snapshot.state = JobState::kRunning;
    }
    ServerMetrics::get().running.add(1.0);
    run_job(*job);
    ServerMetrics::get().running.add(-1.0);
    job_update_.notify_all();
  }
}

void TuningServer::run_job(Job& job) {
  tuner::TuningResult result;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::optional<std::string> error;
  try {
    ServiceObjective objective(
        *job.spec.objective,
        EvalBinding{&engine_, &cache_, job.spec.fingerprint});

    // The stopper doubles as the per-generation progress beacon and the
    // cancellation point; tuning state stays consistent because it only
    // runs at generation boundaries.
    tuner::Stopper user_stopper = job.spec.stopper;
    tuner::Stopper beacon = [this, &job, &objective, user_stopper](
                                unsigned generation,
                                const tuner::TuningResult& so_far) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        JobProgress& snap = job.snapshot;
        snap.generations_done = so_far.generations_run;
        snap.best_perf = so_far.best_perf;
        snap.initial_perf = so_far.initial_perf;
        snap.seconds_spent = so_far.total_seconds;
        snap.cache_hits = objective.cache_hits();
        snap.cache_misses = objective.cache_misses();
        if (so_far.best_config.has_value()) {
          snap.best_indices = so_far.best_config->indices();
        }
      }
      job_update_.notify_all();
      if (job.cancel_requested.load(std::memory_order_relaxed)) return true;
      return user_stopper && user_stopper(generation, so_far);
    };

    tuners::TunerSpec tuner_spec = tuners::spec_from_ga(job.spec.ga);
    tuner_spec.hints = job.spec.hints;
    tuner_spec.impact = job.spec.impact;
    const std::unique_ptr<tuner::Tuner> backend =
        tuners::make_tuner(job.spec.backend, space_, objective, tuner_spec);
    tuner::DriveOptions drive_options;
    drive_options.stopper = beacon;
    result = tuner::drive(*backend, objective, drive_options).tuning;
    cache_hits = objective.cache_hits();
    cache_misses = objective.cache_misses();
  } catch (const std::exception& e) {
    error = e.what();
  }
  // Only this thread touches a running job's objective and stopper, so
  // they are destroyed here, outside mutex_ and before the terminal state
  // is published: a waiter that returns never sees them alive.
  take_releasable(job.spec);
  const bool cancelled = job.cancel_requested.load(std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mutex_);
  if (error.has_value()) {
    job.state = JobState::kFailed;
    job.snapshot.state = JobState::kFailed;
    job.snapshot.error = std::move(*error);
    ++jobs_failed_;
    ServerMetrics::get().failed.add(1);
    return;
  }
  job.result = std::move(result);
  job.state = cancelled ? JobState::kCancelled : JobState::kDone;
  job.snapshot.state = job.state;
  job.snapshot.cache_hits = cache_hits;
  job.snapshot.cache_misses = cache_misses;
  if (cancelled) {
    ++jobs_cancelled_;
    ServerMetrics::get().cancelled.add(1);
  } else {
    ++jobs_completed_;
    ServerMetrics::get().completed.add(1);
  }
}

}  // namespace tunio::service

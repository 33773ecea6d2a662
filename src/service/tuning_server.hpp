// The tuning server: named tuning jobs over a shared evaluation engine
// and result cache.
//
// A server owns one `EvalEngine` and one `ResultCache` and runs up to
// `max_concurrent_jobs` tuning jobs at a time over them (queued jobs
// start as slots free up). Clients `submit` a job — workload objective,
// backend, GA options — then poll `progress`, `cancel`, or
// block in `wait`. Cancellation is cooperative and takes effect at the
// next generation boundary, so a cancelled job still carries a valid
// partial `TuningResult`; resubmitting with
// `GaOptions::seed_indices = progress.best_indices` resumes the session
// from where it stopped (the shared cache makes the replayed elite
// evaluations free).
//
// Determinism: a job's `TuningResult` depends only on its spec (GA seed,
// objective seed, budget) — never on worker count, queue order, or what
// other jobs run concurrently — provided its cache fingerprint is not
// shared with a job evaluating the same genomes (shared hits bill zero
// seconds, which is the point of sharing, but changes that job's budget
// accounting relative to running alone).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "config/space.hpp"
#include "service/eval_engine.hpp"
#include "service/result_cache.hpp"
#include "tuner/genetic_tuner.hpp"

namespace tunio::service {

using JobId = std::uint64_t;

enum class JobState { kQueued, kRunning, kDone, kCancelled, kFailed };

std::string job_state_name(JobState state);

struct JobSpec {
  std::string name;
  /// The real evaluator; should be `concurrent_safe` for the engine to
  /// help. The server shares ownership only until the job ends: on every
  /// terminal path (done, cancelled, failed, server shutdown) it drops its
  /// reference to the objective and to `stopper`, so a finished job holds
  /// only its name, snapshot and result.
  std::shared_ptr<tuner::Objective> objective;
  /// Cache namespace (workload + testbed identity). 0 derives one from
  /// `name`, which keeps distinct-named jobs from cross-hitting.
  std::uint64_t fingerprint = 0;
  /// Search backend (see tuners::backend_names). Every backend is built
  /// by the tuners registry and run by `tuner::drive`, so progress
  /// beacons, cancellation, caching and budget accounting work
  /// identically for all of them.
  std::string backend = "ga";
  tuner::GaOptions ga;
  /// Knowledge inputs for the "rule" backend (parameter name, weight)
  /// and impact scores — ignored by the other backends.
  std::vector<std::pair<std::string, double>> hints;
  std::vector<double> impact;
  /// Optional extra stop policy, consulted after every generation.
  tuner::Stopper stopper;
};

/// Snapshot of a job, refreshed at every generation boundary.
struct JobProgress {
  JobId id = 0;
  std::string name;
  std::string backend;  ///< search backend the job runs ("ga", "bo", ...)
  JobState state = JobState::kQueued;
  unsigned generations_done = 0;
  double best_perf = 0.0;
  double initial_perf = 0.0;
  double seconds_spent = 0.0;  ///< simulated budget, not wall-clock
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Best genome so far — the resume seed for a follow-up job.
  std::optional<std::vector<std::size_t>> best_indices;
  std::string error;  ///< set when state == kFailed
};

struct ServerOptions {
  unsigned max_concurrent_jobs = 2;
  EngineOptions engine;
  CacheOptions cache;
};

class TuningServer {
 public:
  explicit TuningServer(const cfg::ConfigSpace& space,
                        ServerOptions options = {});
  /// Cancels queued jobs, lets running generations finish, joins.
  ~TuningServer();

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  JobId submit(JobSpec spec);

  /// Requests cancellation. Queued jobs cancel immediately; running jobs
  /// stop at the next generation boundary. Returns false for unknown or
  /// already-terminal jobs.
  bool cancel(JobId id);

  JobProgress progress(JobId id) const;

  /// Blocks until the job reaches a terminal state. Returns the (full or
  /// partial) result for done/cancelled jobs; throws `Error` for failed
  /// ones.
  tuner::TuningResult wait(JobId id);
  void wait_all();

  struct ServiceStats {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_cancelled = 0;
    std::uint64_t jobs_failed = 0;
    std::uint64_t engine_evaluations = 0;  ///< tasks run on the pool
    unsigned workers = 0;
    ResultCache::Stats cache;
  };
  ServiceStats stats() const;

  ResultCache& cache() { return cache_; }
  EvalEngine& engine() { return engine_; }
  const cfg::ConfigSpace& space() const { return space_; }

 private:
  struct Job {
    JobId id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::atomic<bool> cancel_requested{false};
    JobProgress snapshot;
    std::optional<tuner::TuningResult> result;
  };

  void scheduler_loop();
  void run_job(Job& job);
  Job& job_ref(JobId id);
  const Job& job_ref(JobId id) const;

  const cfg::ConfigSpace& space_;
  ServerOptions options_;
  EvalEngine engine_;
  ResultCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable job_ready_;   ///< queue -> schedulers
  std::condition_variable job_update_;  ///< progress/terminal -> waiters
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  std::deque<JobId> pending_;
  JobId next_id_ = 1;
  bool stopping_ = false;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_cancelled_ = 0;
  std::uint64_t jobs_failed_ = 0;

  std::vector<std::thread> schedulers_;
};

}  // namespace tunio::service

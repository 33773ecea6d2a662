// The parallel evaluation engine: a fixed-size worker pool that scores a
// batch of configurations concurrently.
//
// Serial evaluation is the scalability ceiling of the genetic pipeline —
// every generation is an embarrassingly parallel batch of independent
// testbed runs, yet `GeneticTuner` historically walked them one by one.
// The engine lifts that: each worker provisions its own simulated
// testbed (objectives create a fresh MpiSim/PfsSimulator per run) and
// every evaluation draws noise from a per-genome RNG stream
// (`derive_stream(seed, hash_indices(genome))`), so a batch's results
// are bit-identical regardless of worker count, scheduling, or
// completion order. Only *wall-clock* time shrinks; the simulated
// budget billed to a tuning run is unchanged.
//
// One engine is shared by all tuning jobs of a service: batches from
// concurrent jobs interleave over the same workers. The thread that
// submits a batch does not sit idle while it runs: the pool and the
// caller claim the batch's evaluations from one counter, so each runs
// exactly once wherever it lands, and the caller evaluates until none is
// left before waiting for the ones still in flight. A caller only ever
// runs its own batch, so one job never stalls behind another job's
// evaluation, and an evaluation may itself submit a batch to the engine
// it runs on.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "tuner/objective.hpp"

namespace tunio::service {

struct EngineOptions {
  /// Pool threads. 0 = one per hardware thread (at least one). Each
  /// caller inside `evaluate_batch` adds one more evaluator for its own
  /// batch.
  unsigned workers = 0;
};

class EvalEngine {
 public:
  explicit EvalEngine(EngineOptions options = {});
  ~EvalEngine();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Evaluates `configs` over the pool and the calling thread;
  /// `results[i]` corresponds to `configs[i]`. Bit-identical to the
  /// serial path (see file comment). Objectives that are not
  /// `concurrent_safe` fall back to their own (serial) `evaluate_batch`.
  /// Safe to call from several threads at once, and from inside an
  /// evaluation. Returns once every evaluation of the batch has
  /// finished; rethrows the first exception one of them threw.
  std::vector<tuner::Evaluation> evaluate_batch(
      tuner::Objective& objective,
      const std::vector<cfg::Configuration>& configs);

  /// Completed single evaluations on the fan-out path (across all
  /// batches), whether the pool or the caller ran them.
  std::uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }
  /// Completed batches.
  std::uint64_t batches_completed() const {
    return batches_completed_.load(std::memory_order_relaxed);
  }

 private:
  struct Batch;

  void worker_loop();
  /// Claims one of `batch`'s evaluations and runs it; false when none
  /// was left to claim.
  bool run_one(Batch& batch);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  /// One entry per evaluation a worker may claim; an entry that finds its
  /// batch fully claimed is dropped.
  std::queue<std::shared_ptr<Batch>> queue_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> tasks_completed_{0};
  std::atomic<std::uint64_t> batches_completed_{0};
};

}  // namespace tunio::service

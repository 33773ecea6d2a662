#include "service/eval_engine.hpp"

#include <exception>
#include <memory>

#include "obs/metrics.hpp"

namespace tunio::service {

namespace {

// Engine throughput is the service's headline metric, so these publish
// live (per task/batch, not per simulated op — cheap enough).
obs::Counter& engine_tasks_counter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::global().counter("service.engine.tasks");
  return *counter;
}

obs::Counter& engine_batches_counter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::global().counter("service.engine.batches");
  return *counter;
}

}  // namespace

/// A batch in flight. Workers' queue entries may outlive the
/// `evaluate_batch` call, so an entry that claims an index at or past
/// `size` must touch nothing else: `objective`, `configs` and `results`
/// belong to the caller, which returns once every index below `size` has
/// been claimed and finished.
struct EvalEngine::Batch {
  Batch(tuner::Objective& objective,
        const std::vector<cfg::Configuration>& configs,
        std::vector<tuner::Evaluation>& results)
      : objective(objective),
        configs(configs),
        results(results),
        size(configs.size()),
        remaining(configs.size()) {}

  tuner::Objective& objective;
  const std::vector<cfg::Configuration>& configs;
  std::vector<tuner::Evaluation>& results;
  const std::size_t size;
  std::atomic<std::size_t> next{0};  ///< next unclaimed index

  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining;  ///< evaluations not yet finished
  std::exception_ptr error;
};

EvalEngine::EvalEngine(EngineOptions options) {
  unsigned workers = options.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

EvalEngine::~EvalEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void EvalEngine::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      batch = std::move(queue_.front());
      queue_.pop();
    }
    run_one(*batch);
  }
}

bool EvalEngine::run_one(Batch& batch) {
  const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= batch.size) return false;
  std::exception_ptr error;
  try {
    batch.results[i] = batch.objective.evaluate(batch.configs[i]);
  } catch (...) {
    error = std::current_exception();
  }
  tasks_completed_.fetch_add(1, std::memory_order_relaxed);
  engine_tasks_counter().add(1);
  std::lock_guard<std::mutex> lock(batch.mutex);
  if (error && !batch.error) batch.error = error;
  if (--batch.remaining == 0) batch.done.notify_all();
  return true;
}

std::vector<tuner::Evaluation> EvalEngine::evaluate_batch(
    tuner::Objective& objective,
    const std::vector<cfg::Configuration>& configs) {
  // Objectives with shared mutable state cannot fan out; their own
  // serial batch path preserves correctness (and the result contract).
  if (!objective.concurrent_safe() || configs.size() <= 1) {
    const std::vector<tuner::Evaluation> results =
        objective.evaluate_batch(configs);
    batches_completed_.fetch_add(1, std::memory_order_relaxed);
    engine_batches_counter().add(1);
    return results;
  }

  std::vector<tuner::Evaluation> results(configs.size());
  auto batch = std::make_shared<Batch>(objective, configs, results);
  // The caller is one evaluator, so the pool is offered the rest.
  const std::size_t offered = configs.size() - 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < offered; ++i) queue_.push(batch);
  }
  for (std::size_t i = 0; i < offered; ++i) work_ready_.notify_one();

  while (run_one(*batch)) {
  }
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done.wait(lock, [&] { return batch->remaining == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
  batches_completed_.fetch_add(1, std::memory_order_relaxed);
  engine_batches_counter().add(1);
  return results;
}

}  // namespace tunio::service

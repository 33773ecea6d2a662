// The objective stack every benchmark job evaluates through.
//
//   BatchTimer  — called once per search iteration with the batch of
//                 configurations that missed the shared result cache; runs
//                 on the job's thread and hands the batch to the engine.
//   EvalTimer   — called by the engine's workers, once per configuration.
//
// Both count what the job evaluated (fresh evaluations after each batch,
// for evals-to-95%) and, when span recording is on, record one span per
// batch and one per evaluation (the evaluation's parent is its batch).
//
// EvalTimer forwards `concurrent_safe()` and `replay_gate()`, so the
// engine still fans evaluations out and the replay fast path engages as
// it would on the bare objective. BatchTimer reports itself not
// concurrent-safe: the engine (inside the server or the pipeline binding)
// then passes it whole batches on the job's thread instead of single
// configurations, which is what lets it see batch boundaries; the
// fan-out happens one level down, on the same engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "service/eval_engine.hpp"
#include "tuner/objective.hpp"

namespace jobbench {

class EvalTimer final : public tunio::tuner::Objective {
 public:
  EvalTimer(std::shared_ptr<tunio::tuner::Objective> inner, std::uint64_t job);

  std::string name() const override { return inner_->name(); }
  tunio::tuner::Evaluation evaluate(
      const tunio::cfg::Configuration& config) override;
  tunio::tuner::ReplayGate replay_gate() const override {
    return inner_->replay_gate();
  }
  bool concurrent_safe() const override { return inner_->concurrent_safe(); }
  std::uint64_t evaluations() const override { return inner_->evaluations(); }

  /// Parent span of the evaluations that follow.
  void set_batch(std::uint64_t span_id) {
    batch_.store(span_id, std::memory_order_relaxed);
  }
  /// Evaluations that reached this objective.
  std::uint64_t fresh() const { return fresh_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<tunio::tuner::Objective> inner_;
  std::uint64_t job_;
  std::atomic<std::uint64_t> batch_{0};
  std::atomic<std::uint64_t> fresh_{0};
};

class BatchTimer final : public tunio::tuner::Objective {
 public:
  /// `engine` must outlive this objective. `job_span` parents the batch
  /// spans.
  BatchTimer(std::shared_ptr<tunio::tuner::Objective> inner,
             tunio::service::EvalEngine& engine, std::uint64_t job,
             std::uint64_t job_span);

  std::string name() const override { return eval_.name(); }
  tunio::tuner::Evaluation evaluate(
      const tunio::cfg::Configuration& config) override;
  std::vector<tunio::tuner::Evaluation> evaluate_batch(
      const std::vector<tunio::cfg::Configuration>& configs) override;
  tunio::tuner::ReplayGate replay_gate() const override {
    return eval_.replay_gate();
  }
  bool concurrent_safe() const override { return false; }
  std::uint64_t evaluations() const override { return eval_.evaluations(); }

  /// Cumulative fresh evaluations after each batch, one entry per batch.
  /// Read only after the job has finished.
  const std::vector<std::uint64_t>& fresh_after_batch() const {
    return fresh_after_batch_;
  }
  /// Monotonic time the first batch started (0 before it).
  std::int64_t first_batch_ns() const { return first_batch_ns_; }

 private:
  EvalTimer eval_;
  tunio::service::EvalEngine& engine_;
  std::uint64_t job_;
  std::uint64_t job_span_;
  std::vector<std::uint64_t> fresh_after_batch_;
  std::int64_t first_batch_ns_ = 0;
};

}  // namespace jobbench

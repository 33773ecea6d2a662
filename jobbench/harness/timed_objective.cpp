#include "harness/timed_objective.hpp"

#include "harness/spans.hpp"

namespace jobbench {

EvalTimer::EvalTimer(std::shared_ptr<tunio::tuner::Objective> inner,
                     std::uint64_t job)
    : inner_(std::move(inner)), job_(job) {}

tunio::tuner::Evaluation EvalTimer::evaluate(
    const tunio::cfg::Configuration& config) {
  fresh_.fetch_add(1, std::memory_order_relaxed);
  ScopedSpan span("eval", job_, batch_.load(std::memory_order_relaxed));
  return inner_->evaluate(config);
}

BatchTimer::BatchTimer(std::shared_ptr<tunio::tuner::Objective> inner,
                       tunio::service::EvalEngine& engine, std::uint64_t job,
                       std::uint64_t job_span)
    : eval_(std::move(inner), job),
      engine_(engine),
      job_(job),
      job_span_(job_span) {}

tunio::tuner::Evaluation BatchTimer::evaluate(
    const tunio::cfg::Configuration& config) {
  return evaluate_batch({config}).front();
}

std::vector<tunio::tuner::Evaluation> BatchTimer::evaluate_batch(
    const std::vector<tunio::cfg::Configuration>& configs) {
  if (first_batch_ns_ == 0) first_batch_ns_ = now_ns();
  ScopedSpan span("eval.batch", job_, job_span_);
  eval_.set_batch(span.id());
  std::vector<tunio::tuner::Evaluation> results =
      engine_.evaluate_batch(eval_, configs);
  fresh_after_batch_.push_back(eval_.fresh());
  return results;
}

}  // namespace jobbench

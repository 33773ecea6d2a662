#include "tuner/tuner.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace tunio::tuner {

namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

DriveResult drive(Tuner& tuner, Objective& objective,
                  const DriveOptions& options) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& iterations =
      registry.counter("tuners." + tuner.name() + ".iterations");
  obs::Counter& proposals =
      registry.counter("tuners." + tuner.name() + ".proposals");

  const std::uint64_t replayed0 = counter_value("tuner.eval.replayed");
  const std::uint64_t interpreted0 = counter_value("tuner.eval.interpreted");
  const std::uint64_t cache_hits0 = counter_value("service.cache.hits");
  const std::uint64_t cache_misses0 = counter_value("service.cache.misses");

  DriveResult out;
  unsigned iteration = 0;
  while (!tuner.done()) {
    const std::vector<cfg::Configuration> batch = tuner.propose();
    proposals.add(batch.size());
    out.fresh_evaluations += batch.size();
    // Evaluated even when empty: a cache-satisfied GA generation still
    // issues its (empty) batch, so the objective sees every iteration.
    const std::vector<Evaluation> evals = objective.evaluate_batch(batch);
    tuner.observe(evals);
    iterations.add(1);
    out.evaluations.push_back(out.fresh_evaluations);

    const TuningResult& progress = tuner.progress();
    TUNIO_CHECK_MSG(progress.generations_run == iteration + 1,
                    "backend '" + tuner.name() +
                        "' did not advance its iteration count");
    if (options.stopper && options.stopper(iteration, progress)) {
      tuner.finish(/*early_stopped=*/true);
      break;
    }
    ++iteration;
    if (options.budget_seconds > 0.0 &&
        progress.total_seconds >= options.budget_seconds) {
      tuner.finish(/*early_stopped=*/false);
      break;
    }
    if (options.max_iterations > 0 && iteration >= options.max_iterations) {
      tuner.finish(/*early_stopped=*/false);
      break;
    }
  }

  out.tuning = tuner.progress();
  out.replayed_evals = counter_value("tuner.eval.replayed") - replayed0;
  out.interpreted_evals =
      counter_value("tuner.eval.interpreted") - interpreted0;
  out.result_cache_hits = counter_value("service.cache.hits") - cache_hits0;
  out.result_cache_misses =
      counter_value("service.cache.misses") - cache_misses0;
  const ReplayGate gate = objective.replay_gate();
  out.replay_eligible = gate.eligible;
  out.replay_gate_reason = gate.reason;
  return out;
}

}  // namespace tunio::tuner

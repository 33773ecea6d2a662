#include "core/session.hpp"

#include "common/error.hpp"
#include "config/xml.hpp"
#include "core/pipeline.hpp"

namespace tunio::core {

InteractiveSession::InteractiveSession(TunIO& tunio,
                                       tuner::Objective& objective,
                                       tuner::GaOptions ga,
                                       service::EvalBinding binding)
    : tunio_(tunio),
      objective_(objective),
      ga_(ga),
      binding_(binding),
      best_config_(tunio.space().default_configuration()) {}

tuner::TuningResult InteractiveSession::step(unsigned generations) {
  TUNIO_CHECK_MSG(generations > 0, "step needs at least one generation");
  tuner::GaOptions ga = ga_;
  ga.max_generations = generations;
  // Resume from the best configuration found so far; decorrelate the
  // random stream across installments.
  ga.seed = ga_.seed + 0x9E37'79B9u * (steps_ + 1);
  if (steps_ > 0) {
    ga.seed_indices = best_config_.indices();
  }
  const tuner::TuningResult result =
      run_pipeline(tunio_.space(), objective_, &tunio_,
                   PipelineVariant("session", /*impact_first=*/true,
                                   StopPolicy::kTunio),
                   ga, binding_)
          .result;
  if (!have_initial_) {
    initial_perf_ = result.initial_perf;
    have_initial_ = true;
  }
  if (result.best_config.has_value() && result.best_perf > best_perf_) {
    best_perf_ = result.best_perf;
    best_config_ = *result.best_config;
  }
  total_seconds_ += result.total_seconds;
  total_generations_ += result.generations_run;
  ++steps_;
  return result;
}

const cfg::Configuration& InteractiveSession::best_configuration() const {
  return best_config_;
}

std::string InteractiveSession::export_xml() const {
  return cfg::to_xml(best_config_);
}

}  // namespace tunio::core

#include "core/pipeline.hpp"

#include "common/error.hpp"
#include "tuners/registry.hpp"

namespace tunio::core {

namespace {

tuner::Stopper make_stopper(const PipelineVariant& variant, TunIO* tunio) {
  switch (variant.stop) {
    case StopPolicy::kNone:
      return tuner::make_no_stopper();
    case StopPolicy::kHeuristic:
      return tuner::make_heuristic_stopper();
    case StopPolicy::kMaxPerf:
      return tuner::make_max_performance_stopper(variant.max_perf_target);
    case StopPolicy::kTunio:
      tunio->early_stopping().reset_episode();
      return [tunio](unsigned generation,
                     const tuner::TuningResult& progress) {
        return tunio->early_stopping().stop(generation, progress.best_perf);
      };
  }
  throw InvalidArgument("unknown stop policy");
}

/// Smart Configuration Generation as the GA's subset hook: generation 0
/// scores the full space, later generations tune the subset the picker
/// chooses from the last generation's best perf and subset.
tuner::SubsetProvider impact_first_subsets(TunIO* tunio,
                                           const cfg::ConfigSpace& space) {
  tunio->smart_config().reset_episode();
  return [tunio, &space](unsigned generation,
                         const tuner::TuningResult& progress) {
    if (generation == 0 || progress.history.empty()) {
      std::vector<std::size_t> all(space.num_parameters());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      return all;
    }
    const tuner::GenerationStats& last = progress.history.back();
    return tunio->smart_config().subset_picker(last.best_perf, last.subset);
  };
}

}  // namespace

PipelineRun run_pipeline(const cfg::ConfigSpace& space,
                         tuner::Objective& objective, TunIO* tunio,
                         const PipelineVariant& variant,
                         tuner::GaOptions ga,
                         const service::EvalBinding& binding) {
  service::ServiceObjective service_objective(objective, binding);
  tuner::Objective& eval_objective =
      binding.enabled() ? static_cast<tuner::Objective&>(service_objective)
                        : objective;

  const bool needs_tunio =
      variant.impact_first || variant.stop == StopPolicy::kTunio;
  TUNIO_CHECK_MSG(!needs_tunio || tunio != nullptr,
                  "variant '" + variant.label + "' needs a TunIO instance");

  tuners::TunerSpec spec = tuners::spec_from_ga(ga);
  spec.hints = variant.hints;
  if (variant.impact_first) {
    // The GA restricts its genes to the picked subsets; the rule backend
    // sweeps parameters in impact order.
    spec.subset_provider = impact_first_subsets(tunio, space);
    spec.impact = tunio->smart_config().impact_scores();
  }
  const std::unique_ptr<tuner::Tuner> backend =
      tuners::make_tuner(variant.backend, space, eval_objective, spec);

  tuner::DriveOptions drive_options;
  drive_options.stopper = make_stopper(variant, tunio);

  PipelineRun run;
  run.label = variant.label;
  run.backend = variant.backend;
  run.result = tuner::drive(*backend, eval_objective, drive_options).tuning;
  return run;
}

}  // namespace tunio::core

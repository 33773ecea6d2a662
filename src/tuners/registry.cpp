#include "tuners/registry.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tuners/bo_tuner.hpp"
#include "tuners/random_tuner.hpp"
#include "tuners/rule_tuner.hpp"

namespace tunio::tuners {

TunerSpec spec_from_ga(const tuner::GaOptions& ga) {
  TunerSpec spec;
  spec.seed = ga.seed;
  spec.batch = ga.population;
  spec.max_iterations = ga.max_generations;
  spec.seed_indices = ga.seed_indices;
  spec.ga = ga;
  return spec;
}

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> kNames = {"ga", "bo", "rule",
                                                  "random"};
  return kNames;
}

bool is_backend(const std::string& name) {
  const std::vector<std::string>& names = backend_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<tuner::Tuner> make_tuner(const std::string& name,
                                         const cfg::ConfigSpace& space,
                                         tuner::Objective& objective,
                                         const TunerSpec& spec) {
  if (name == "ga") {
    tuner::GaOptions options = spec.ga;
    options.seed = spec.seed;
    options.max_generations = spec.max_iterations;
    if (spec.seed_indices.has_value()) options.seed_indices = spec.seed_indices;
    auto ga = std::make_unique<tuner::GeneticTuner>(space, objective, options);
    ga->set_subset_provider(spec.subset_provider);
    return ga;
  }
  if (name == "bo") {
    BoOptions options;
    options.seed = spec.seed;
    options.batch = spec.batch;
    options.initial_design = std::max(spec.batch, 2u);
    options.max_iterations = spec.max_iterations;
    options.seed_indices = spec.seed_indices;
    return std::make_unique<BoTuner>(space, options);
  }
  if (name == "rule") {
    RuleOptions options;
    options.hints = spec.hints;
    options.impact = spec.impact;
    options.seed_indices = spec.seed_indices;
    return std::make_unique<RuleTuner>(space, options);
  }
  if (name == "random") {
    RandomOptions options;
    options.seed = spec.seed;
    options.batch = spec.batch;
    options.max_iterations = spec.max_iterations;
    options.seed_indices = spec.seed_indices;
    return std::make_unique<RandomTuner>(space, options);
  }
  throw InvalidArgument("unknown tuner backend '" + name +
                        "' (known: ga, bo, rule, random)");
}

}  // namespace tunio::tuners

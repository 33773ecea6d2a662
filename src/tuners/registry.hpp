// Backend registry: tuner construction by name.
//
// One `TunerSpec` carries the knobs every backend understands (seed,
// batch width, iteration horizon, starting configuration) plus the
// backend-specific extras (GA options and subset hook, linter hints,
// impact scores), so callers — the pipeline, the tuning service, the
// tournament bench — select a search strategy with a string, drive it
// with `tuner::drive`, and stay agnostic of its type.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tuner/genetic_tuner.hpp"
#include "tuner/tuner.hpp"

namespace tunio::tuners {

struct TunerSpec {
  std::uint64_t seed = 0x5EED;
  /// Proposal batch width for the batched backends (bo/random). The GA's
  /// batch is its population (see `ga.population`).
  unsigned batch = 8;
  /// Backend iteration horizon; the driver's budget usually stops
  /// earlier. Applied as `max_generations` for the GA.
  unsigned max_iterations = 50;
  /// Optional starting configuration (domain indices) for every backend.
  std::optional<std::vector<std::size_t>> seed_indices;

  /// GA-specific knobs ("ga" backend). `seed`, `max_iterations` and
  /// `seed_indices` above override the matching fields.
  tuner::GaOptions ga;
  /// Smart Configuration Generation hook for the "ga" backend (see
  /// `GeneticTuner::set_subset_provider`); empty = tune every gene.
  tuner::SubsetProvider subset_provider;

  /// Knowledge inputs for the "rule" backend.
  std::vector<std::pair<std::string, double>> hints;
  std::vector<double> impact;
};

/// A spec whose shared knobs come from `ga`: seed, iteration horizon and
/// starting configuration, with the population as the batch width of
/// the batched backends.
TunerSpec spec_from_ga(const tuner::GaOptions& ga);

/// Names accepted by `make_tuner`, in tournament order.
const std::vector<std::string>& backend_names();

bool is_backend(const std::string& name);

/// Builds backend `name` over `space`, to be run with `tuner::drive`.
/// `objective` is only captured by the GA, whose constructor takes the
/// objective `GeneticTuner::run` drives against. Throws
/// `InvalidArgument` on an unknown name.
std::unique_ptr<tuner::Tuner> make_tuner(const std::string& name,
                                         const cfg::ConfigSpace& space,
                                         tuner::Objective& objective,
                                         const TunerSpec& spec = {});

}  // namespace tunio::tuners

// Labeled tuning-pipeline variants — the configurations compared in the
// paper's evaluation (HSTuner with/without stopping, with/without the
// I/O kernel, and full TunIO).
//
// `run_pipeline` is the one place TunIO's agents are wired into a
// search: it builds the variant's backend with `tuners::make_tuner`,
// hands it Smart Configuration Generation as the subset hook and the
// variant's stop policy as the driver's stopper, and runs it with
// `tuner::drive`. Interactive sessions and benches call it rather than
// wiring the agents themselves.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/tunio.hpp"
#include "service/service_objective.hpp"
#include "tuner/genetic_tuner.hpp"
#include "tuner/stoppers.hpp"
#include "tuner/tuner.hpp"

namespace tunio::core {

enum class StopPolicy {
  kNone,        ///< run the full budget (HSTuner "No Stop")
  kHeuristic,   ///< 5% / 5-iteration heuristic
  kTunio,       ///< RL Early Stopping
  kMaxPerf,     ///< oracle: stop on reaching a known target perf
};

struct PipelineVariant {
  PipelineVariant() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): label-only is idiomatic
  PipelineVariant(std::string label_, bool impact_first_ = false,
                  StopPolicy stop_ = StopPolicy::kNone,
                  double max_perf_target_ = 0.0)
      : label(std::move(label_)),
        impact_first(impact_first_),
        stop(stop_),
        max_perf_target(max_perf_target_) {}

  std::string label;
  bool impact_first = false;   ///< attach Smart Configuration Generation
  StopPolicy stop = StopPolicy::kNone;
  double max_perf_target = 0.0;  ///< for kMaxPerf
  /// Search backend (see tuners::backend_names); every backend runs
  /// through the registry and `tuner::drive`. Impact-first subset
  /// selection is a GA hook; for the "rule" backend the impact scores
  /// are fed in as sweep priorities instead.
  std::string backend = "ga";
  /// Knowledge inputs forwarded to the "rule" backend (parameter name,
  /// weight) — e.g. `analysis::LintReport::tuning_hints()`.
  std::vector<std::pair<std::string, double>> hints;
};

struct PipelineRun {
  std::string label;
  std::string backend;  ///< backend that produced `result`
  tuner::TuningResult result;
};

/// Runs one labeled pipeline variant. `tunio` is required (and mutated:
/// its agents learn) for impact-first or kTunio variants; pass nullptr
/// for pure-baseline runs. An enabled `binding` routes evaluations
/// through the service layer — generations fan out over the engine's
/// workers and repeat genomes hit the shared result cache — without
/// changing the tuning outcome (results are bit-identical to serial).
PipelineRun run_pipeline(const cfg::ConfigSpace& space,
                         tuner::Objective& objective, TunIO* tunio,
                         const PipelineVariant& variant,
                         tuner::GaOptions ga = {},
                         const service::EvalBinding& binding = {});

}  // namespace tunio::core

// The search-strategy interface and the one loop that drives it.
//
// Tuning splits into two halves:
//
//   * a `Tuner` proposes batches of configurations and absorbs their
//     evaluations — pure search strategy, no objective access;
//   * the `drive()` harness owns the objective, the simulated-time
//     budget and the stopping policy, and is the only place
//     `Objective::evaluate_batch` is called — so every strategy composes
//     unchanged with the parallel evaluation engine, the shared result
//     cache, the record/replay fast path and the RL early stopper.
//
// Every search in the system runs through `drive()`: the pipeline, the
// tuning service and interactive sessions build a strategy with
// `tuners::make_tuner` and drive it, and `GeneticTuner::run` is itself a
// call into `drive()`. Strategies are registered by name in
// src/tuners/registry.hpp: "ga" is the genetic pipeline
// (`GeneticTuner`), "bo" an asynchronous batched Bayesian optimizer,
// "rule" a deterministic knowledge-driven searcher seeded from linter
// hints and impact rankings, "random" the random-search control.
// `bench/tuner_tournament` races them under equal budgets.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "config/space.hpp"
#include "tuner/objective.hpp"

namespace tunio::tuner {

/// Everything known after iteration (generation) `generation` finished.
struct GenerationStats {
  unsigned generation = 0;
  double generation_best_perf = 0.0;  ///< best individual this generation
  double best_perf = 0.0;             ///< best seen so far (elitism)
  double cumulative_seconds = 0.0;    ///< tuning budget spent so far
  std::vector<std::size_t> subset;    ///< tuned parameter subset (empty=all)
};

struct TuningResult {
  double initial_perf = 0.0;  ///< default configuration's perf
  std::vector<GenerationStats> history;
  std::optional<cfg::Configuration> best_config;
  double best_perf = 0.0;
  double total_seconds = 0.0;
  unsigned generations_run = 0;
  bool early_stopped = false;
};

/// Returns true to terminate tuning after this iteration. Receives the
/// 0-based iteration index and the progress so far.
using Stopper =
    std::function<bool(unsigned generation, const TuningResult& progress)>;

/// A search strategy over a `cfg::ConfigSpace`. One iteration is one
/// `propose` / `observe` round; `progress()` exposes the `TuningResult`
/// every strategy reports, so downstream consumers (RoTI curves,
/// stoppers, benches) work across strategies unchanged.
class Tuner {
 public:
  virtual ~Tuner() = default;

  /// Registry name of the strategy ("ga", "bo", "rule", "random").
  virtual std::string name() const = 0;

  /// Proposes the next batch of configurations to evaluate *fresh*.
  /// Batches should be sized to keep `Objective::evaluate_batch` (and
  /// the service evaluation engine behind it) fully utilized. An empty
  /// batch is legal — the iteration still advances on `observe` (e.g. a
  /// GA generation fully satisfied from its fitness cache).
  virtual std::vector<cfg::Configuration> propose() = 0;

  /// Reports evaluations for exactly the configurations the last
  /// `propose` returned, in the same order.
  virtual void observe(const std::vector<Evaluation>& evals) = 0;

  /// Progress so far: history, best config/perf, simulated budget spent.
  virtual const TuningResult& progress() const = 0;

  /// True once the strategy will propose nothing further.
  virtual bool done() const = 0;

  /// Driver notification that an external policy (budget exhaustion or
  /// a stopper) terminated the search.
  virtual void finish(bool early_stopped) = 0;
};

/// Driver policy: how long a strategy may search.
struct DriveOptions {
  /// Simulated-seconds budget; the search stops at the first iteration
  /// boundary at or past it. 0 = unlimited (strategy decides).
  double budget_seconds = 0.0;
  /// Hard iteration cap on top of the strategy's own horizon. 0 = none.
  unsigned max_iterations = 0;
  /// Consulted after every iteration with the strategy's progress; the
  /// RL early stopper and the heuristic baselines plug in here.
  Stopper stopper;
};

/// What a driven search produced, plus the attribution counters the
/// tournament report uses to separate search quality from cache luck.
/// The counter deltas are read from the global `MetricsRegistry`, so
/// they attribute cleanly only when no other evaluations run
/// concurrently with this drive (true for benches and tests; a shared
/// service should rely on per-cache stats instead).
struct DriveResult {
  TuningResult tuning;
  /// Cumulative fresh evaluations after each iteration (parallel to
  /// `tuning.history`) — the x-axis of evals-to-target curves.
  std::vector<std::uint64_t> evaluations;
  std::uint64_t fresh_evaluations = 0;  ///< total configs sent to evaluate
  std::uint64_t replayed_evals = 0;     ///< Δ tuner.eval.replayed
  std::uint64_t interpreted_evals = 0;  ///< Δ tuner.eval.interpreted
  std::uint64_t result_cache_hits = 0;  ///< Δ service.cache.hits
  std::uint64_t result_cache_misses = 0;  ///< Δ service.cache.misses
  /// Whether the objective qualified for the record/replay fast path,
  /// and the gate's justification either way (e.g. "no tuned_* reads"
  /// vs "tuned value reaches h5dwrite_all at line 12" or "static
  /// analysis failed: ..."). Explains `replayed_evals == 0` at a glance.
  bool replay_eligible = false;
  std::string replay_gate_reason;
};

/// Runs `tuner` against `objective` until the strategy is done, the
/// budget is spent, the iteration cap is hit, or the stopper fires.
DriveResult drive(Tuner& tuner, Objective& objective,
                  const DriveOptions& options = {});

}  // namespace tunio::tuner

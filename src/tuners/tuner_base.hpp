// Shared bookkeeping for the non-GA backends.
//
// `TunerBase` owns everything every backend must report identically —
// the `TuningResult` history, best-config tracking, simulated-budget
// accounting, per-backend metrics counters and tracer spans on the
// tuning-budget clock — so a concrete backend only implements its search
// logic: `next_batch()` (what to try) and `absorb()` (what to learn).
//
// Convention: the first configuration of the first batch is the
// starting point (the stack defaults or the caller's seed), and its
// evaluation is reported as `initial_perf` — matching the GA, whose
// individual 0 of generation 0 plays the same role.
#pragma once

#include <string>
#include <vector>

#include "config/space.hpp"
#include "tuner/tuner.hpp"

namespace tunio::tuners {

class TunerBase : public tuner::Tuner {
 public:
  TunerBase(std::string backend_name, const cfg::ConfigSpace& space);

  std::string name() const override { return name_; }
  std::vector<cfg::Configuration> propose() final;
  void observe(const std::vector<tuner::Evaluation>& evals) final;
  const tuner::TuningResult& progress() const override { return result_; }
  bool done() const override { return done_; }
  void finish(bool early_stopped) override;

 protected:
  /// The next batch of configurations to evaluate. Backends signal
  /// exhaustion with `set_done()` (an empty batch alone is not terminal).
  virtual std::vector<cfg::Configuration> next_batch() = 0;

  /// Learn from the evaluations of the batch `next_batch` returned.
  /// Called after the iteration's history entry is recorded, so
  /// `best_perf()` already reflects this batch.
  virtual void absorb(const std::vector<cfg::Configuration>& batch,
                      const std::vector<tuner::Evaluation>& evals) = 0;

  /// No further proposals; the driver will stop after this iteration.
  void set_done() { done_ = true; }

  /// Best perf observed so far (-1 before any observation).
  double best_perf() const { return best_perf_; }
  const cfg::ConfigSpace& space() const { return space_; }
  unsigned iteration() const { return iteration_; }

 private:
  const cfg::ConfigSpace& space_;
  std::string name_;
  tuner::TuningResult result_;
  std::vector<cfg::Configuration> pending_;
  bool pending_issued_ = false;
  bool done_ = false;
  unsigned iteration_ = 0;
  double best_perf_ = -1.0;
  double cumulative_seconds_ = 0.0;
};

}  // namespace tunio::tuners

// Output checks applied to every benchmark job.
#pragma once

#include "tuner/genetic_tuner.hpp"
#include "tuner/objective.hpp"

namespace jobbench {

/// Re-evaluates the job's reported best configuration on `fresh`, an
/// objective over the same program and testbed built with
/// `ReplayMode::kOff` (always interpreted), and returns true when the
/// perf is bit-identical to the reported `best_perf`. A job without a
/// best configuration fails.
bool best_reproduces(const tunio::tuner::TuningResult& result,
                     tunio::tuner::Objective& fresh);

/// True when two runs of one job produced bit-identical outcomes: best
/// and initial perf, best configuration, simulated budget, iteration
/// count, early-stop flag and the per-iteration history.
bool same_outcome(const tunio::tuner::TuningResult& a,
                  const tunio::tuner::TuningResult& b);

}  // namespace jobbench

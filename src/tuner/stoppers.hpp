// Baseline stopping policies the paper compares TunIO against.
#pragma once

#include "tuner/tuner.hpp"

namespace tunio::tuner {

/// The heuristic early stopper of §IV-C: stop when the best perf has not
/// improved by `threshold` (relative) over the last `window` iterations.
/// Defaults are the paper's 5% / 5 iterations.
Stopper make_heuristic_stopper(double threshold = 0.05, unsigned window = 5);

/// "Maximizing Performance" stopping (§IV-C): an oracle that stops the
/// moment perf reaches `target_perf` (the known optimum); the paper
/// assumes a perfect model for this comparison.
Stopper make_max_performance_stopper(double target_perf);

/// Never stops (full-budget tuning / HSTuner "No Stop").
Stopper make_no_stopper();

}  // namespace tunio::tuner

#include "harness/check.hpp"

#include <bit>
#include <cstdint>

namespace jobbench {

namespace {

/// Bit-level equality (no tolerance: the simulation is deterministic).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool best_reproduces(const tunio::tuner::TuningResult& result,
                     tunio::tuner::Objective& fresh) {
  if (!result.best_config.has_value()) return false;
  const tunio::tuner::Evaluation again = fresh.evaluate(*result.best_config);
  return same_bits(again.perf_mbps, result.best_perf);
}

bool same_outcome(const tunio::tuner::TuningResult& a,
                  const tunio::tuner::TuningResult& b) {
  if (!same_bits(a.best_perf, b.best_perf) ||
      !same_bits(a.initial_perf, b.initial_perf) ||
      !same_bits(a.total_seconds, b.total_seconds) ||
      a.generations_run != b.generations_run ||
      a.early_stopped != b.early_stopped ||
      a.best_config.has_value() != b.best_config.has_value() ||
      a.history.size() != b.history.size()) {
    return false;
  }
  if (a.best_config && a.best_config->indices() != b.best_config->indices()) {
    return false;
  }
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (!same_bits(a.history[i].best_perf, b.history[i].best_perf) ||
        !same_bits(a.history[i].cumulative_seconds,
                   b.history[i].cumulative_seconds)) {
      return false;
    }
  }
  return true;
}

}  // namespace jobbench

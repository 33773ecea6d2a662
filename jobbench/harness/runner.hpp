// One benchmark run: set-up, a closed loop of tuning jobs for the given
// number of seconds, output checks, and the metrics.
//
// Untraced run (`trace = false`): the end-to-end metrics. Traced run: an
// untraced half-window, then a traced half-window with spans recorded,
// then the stack/interpreter probe; it reports the per-layer metrics and
// the tracing overhead (traced vs. untraced jobs per minute).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/jobs.hpp"

namespace jobbench {

struct RunOptions {
  Workload workload = Workload::kPaperCheckpoint;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Traced run: file the spans are written to ("" = not written).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< jobs submitted
  std::uint64_t failed = 0;     ///< failed, cancelled or wrong jobs
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
};

Report run_benchmark(const RunOptions& options);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string to_json_line(const Report& report);

}  // namespace jobbench

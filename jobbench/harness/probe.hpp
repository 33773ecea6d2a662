// Stack / interpreter probe for the traced run.
//
// For one configuration of a job, records the op trace once (with
// replay::Recorder), then times the program's own execution — the
// mini-C interpreter or the native workload driver — against
// replay::replay of the recorded trace, each on fresh MpiSim /
// PfsSimulator at the job's rank count. Replay drives only
// hdf5lite -> mpiio -> mpisim -> pfs, so its time is the stack's cost per
// evaluation, and execution minus replay is the program layer's own cost.
// How the stack's time splits among its four layers is not measurable
// from outside them; that waits for tracing inside the program.
//
// The registry counters published by the replayed simulators (PFS, MPI,
// chunk cache flush at teardown) are read around the replays only, so
// per-evaluation counts come from single-threaded runs on a fixed set of
// configurations and repeat exactly.
#pragma once

#include <cstdint>

#include "config/stack_settings.hpp"
#include "minic/ast.hpp"
#include "workloads/workload.hpp"

namespace jobbench {

/// What to execute: a native driver (`workload`) or a program.
struct ProbeTarget {
  const tunio::wl::Workload* workload = nullptr;
  tunio::wl::RunOptions run_options;
  const tunio::minic::Program* program = nullptr;
  unsigned ranks = 128;
};

struct ProbeTotals {
  std::uint64_t configs = 0;
  std::uint64_t replays = 0;
  double exec_us = 0.0;    ///< sum over configs of median execution time
  double replay_us = 0.0;  ///< sum over configs of median replay time
  /// Every replay matched its recording run bit for bit, and every
  /// recording was a valid trace.
  bool identical = true;
  // Registry deltas over the replays.
  std::uint64_t barriers = 0;
  std::uint64_t collective_bytes = 0;
  std::uint64_t pfs_writes = 0;
  std::uint64_t pfs_reads = 0;
  std::uint64_t metadata_ops = 0;
  std::uint64_t rmw_bytes = 0;
  std::uint64_t chunk_hits = 0;
  std::uint64_t chunk_misses = 0;
};

/// Probes one configuration with `reps` timed executions and replays.
void probe_config(const ProbeTarget& target,
                  const tunio::cfg::StackSettings& settings, unsigned reps,
                  ProbeTotals& totals);

}  // namespace jobbench

#include "harness/probe.hpp"

#include <array>
#include <vector>

#include "common/error.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "interp/interp.hpp"
#include "obs/metrics.hpp"
#include "replay/hooks.hpp"
#include "replay/replayer.hpp"
#include "tuner/objective.hpp"

namespace jobbench {

namespace {

constexpr std::array<const char*, 8> kCounters = {
    "mpi.barriers",       "mpi.collective_bytes", "pfs.writes",
    "pfs.reads",          "pfs.metadata_ops",     "pfs.rmw_bytes",
    "h5.chunk_cache.hits", "h5.chunk_cache.misses"};

std::array<std::uint64_t, kCounters.size()> read_counters() {
  std::array<std::uint64_t, kCounters.size()> values{};
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    values[i] = tunio::obs::MetricsRegistry::global().counter(kCounters[i]).value();
  }
  return values;
}

tunio::trace::PerfResult execute(const ProbeTarget& target,
                                 tunio::mpisim::MpiSim& mpi,
                                 tunio::pfs::PfsSimulator& fs,
                                 const tunio::cfg::StackSettings& settings) {
  if (target.workload != nullptr) {
    return target.workload->run(mpi, fs, settings, target.run_options).perf;
  }
  TUNIO_CHECK_MSG(target.program != nullptr, "probe target has no program");
  return tunio::interp::execute(*target.program, mpi, fs, settings).perf;
}

}  // namespace

void probe_config(const ProbeTarget& target,
                  const tunio::cfg::StackSettings& settings, unsigned reps,
                  ProbeTotals& totals) {
  const tunio::pfs::PfsProfile profile = tunio::tuner::TestbedOptions{}.pfs;

  tunio::replay::Recorder recorder;
  tunio::trace::PerfResult recorded;
  {
    tunio::mpisim::MpiSim mpi(target.ranks);
    tunio::pfs::PfsSimulator fs(profile);
    tunio::replay::RecordScope scope(recorder);
    recorded = execute(target, mpi, fs, settings);
  }
  if (!recorder.valid()) {
    totals.identical = false;
    return;
  }
  const tunio::replay::OpTrace trace = recorder.take();

  std::vector<double> exec_us;
  for (unsigned r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    {
      tunio::mpisim::MpiSim mpi(target.ranks);
      tunio::pfs::PfsSimulator fs(profile);
      execute(target, mpi, fs, settings);
    }
    exec_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }

  const auto before = read_counters();
  std::vector<double> replay_us;
  for (unsigned r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    tunio::replay::ReplayResult replayed;
    {
      tunio::mpisim::MpiSim mpi(target.ranks);
      tunio::pfs::PfsSimulator fs(profile);
      replayed = tunio::replay::replay(trace, mpi, fs, settings);
    }
    replay_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    if (!tunio::replay::bit_identical(replayed.perf, recorded)) {
      totals.identical = false;
    }
  }
  const auto after = read_counters();

  totals.configs += 1;
  totals.replays += reps;
  totals.exec_us += median(exec_us);
  totals.replay_us += median(replay_us);
  std::uint64_t* sinks[] = {&totals.barriers,     &totals.collective_bytes,
                            &totals.pfs_writes,   &totals.pfs_reads,
                            &totals.metadata_ops, &totals.rmw_bytes,
                            &totals.chunk_hits,   &totals.chunk_misses};
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    *sinks[i] += after[i] - before[i];
  }
}

}  // namespace jobbench

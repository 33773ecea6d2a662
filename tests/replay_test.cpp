// Tests for the record-once/replay-many evaluation fast path: trace
// recording, settings substitution at replay, bit-identity against the
// interpreted/native paths, static settings-invariance checks, and the
// objective-level state machine (including fallback for kernels whose op
// stream depends on the tuned settings).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/space.hpp"
#include "config/stack_settings.hpp"
#include "discovery/discovery.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "mpisim/mpisim.hpp"
#include "obs/metrics.hpp"
#include "oracle/oracle.hpp"
#include "pfs/pfs.hpp"
#include "replay/hooks.hpp"
#include "replay/invariance.hpp"
#include "replay/optrace.hpp"
#include "replay/replayer.hpp"
#include "trace/meter.hpp"
#include "tuner/objective.hpp"
#include "workloads/sources.hpp"
#include "workloads/workload.hpp"

namespace tunio {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Deterministically varied configurations covering the space.
std::vector<cfg::Configuration> varied_configs(const cfg::ConfigSpace& space,
                                               int count) {
  std::vector<cfg::Configuration> configs;
  Rng rng(0x5EED);
  for (int i = 0; i < count; ++i) {
    cfg::Configuration config = space.default_configuration();
    for (std::size_t p = 0; p < space.num_parameters(); ++p) {
      config.set_index(p, rng.index(space.parameter(p).domain.size()));
    }
    configs.push_back(config);
  }
  return configs;
}

std::shared_ptr<const wl::Workload> small_workload(const std::string& name) {
  if (name == "VPIC-IO") {
    wl::VpicParams params;
    params.particles_per_rank = 1u << 14;
    return std::shared_ptr<const wl::Workload>(wl::make_vpic(params));
  }
  if (name == "FLASH-IO") {
    wl::FlashParams params;
    params.blocks_per_rank = 2;
    return std::shared_ptr<const wl::Workload>(wl::make_flash(params));
  }
  if (name == "HACC-IO") {
    wl::HaccParams params;
    params.particles_per_rank = 1u << 14;
    return std::shared_ptr<const wl::Workload>(wl::make_hacc(params));
  }
  if (name == "MACSio") {
    wl::MacsioParams params;
    params.num_dumps = 2;
    params.bytes_per_rank_per_dump = 1 * MiB;
    params.log_writes_per_dump = 16;
    return std::shared_ptr<const wl::Workload>(wl::make_macsio(params));
  }
  wl::BdcatsParams params;
  params.particles_per_rank = 1u << 14;
  params.clustering_rounds = 2;
  return std::shared_ptr<const wl::Workload>(wl::make_bdcats(params));
}

const char* kWorkloadNames[] = {"VPIC-IO", "FLASH-IO", "HACC-IO", "MACSio",
                                "BD-CATS"};

constexpr unsigned kRanks = 16;

tuner::TestbedOptions testbed(tuner::ReplayMode mode) {
  tuner::TestbedOptions tb;
  tb.num_ranks = kRanks;
  tb.runs_per_eval = 2;
  tb.replay = mode;
  return tb;
}

/// A kernel whose op stream branches on a tuned parameter: it must be
/// statically classified settings-dependent and never replayed.
const char* kSettingsDependentKernel = R"(
int main() {
  int per = 1024;
  if (tuned_stripe_count() > 4) {
    per = 4096;
  }
  int f = h5fcreate("/scratch/dep.h5");
  int d = h5dcreate(f, "x", 8, per * mpi_size());
  h5dwrite_all(d, per);
  h5fclose(f);
  return 0;
}
)";

// --- recorder basics ------------------------------------------------------

TEST(Recorder, EmptyRecorderIsInvalid) {
  replay::Recorder recorder;
  EXPECT_FALSE(recorder.valid());
}

TEST(Recorder, NotRecordingOutsideScope) {
  EXPECT_FALSE(replay::recording());
  replay::Recorder recorder;
  {
    replay::RecordScope scope(recorder);
    EXPECT_TRUE(replay::recording());
    replay::SuppressScope suppress;
    EXPECT_FALSE(replay::recording());
  }
  EXPECT_FALSE(replay::recording());
}

TEST(Recorder, CapturesInterpreterRun) {
  replay::Recorder recorder;
  const minic::Program program = minic::parse(wl::sources::vpic());
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    interp::execute(program, mpi, fs,
                    cfg::default_settings());
  }
  ASSERT_TRUE(recorder.valid()) << recorder.error();
  const replay::OpTrace trace = recorder.take();
  EXPECT_GT(trace.ops.size(), 10u);
  EXPECT_GT(trace.num_files, 0u);
  EXPECT_GT(trace.num_datasets, 0u);
  EXPECT_EQ(trace.ops.front().kind, replay::OpKind::kMeterBegin);
  EXPECT_EQ(trace.ops.back().kind, replay::OpKind::kMeterEnd);
}

// --- differential replay vs interpretation --------------------------------

/// Records one interpreted run at default settings, then checks that
/// replaying the trace under several other configurations is bit-identical
/// to interpreting the program under those configurations.
void expect_replay_matches_interp(const minic::Program& program) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  replay::Recorder recorder;
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    interp::execute(program, mpi, fs,
                    cfg::resolve(space.default_configuration()));
  }
  ASSERT_TRUE(recorder.valid()) << recorder.error();
  const replay::OpTrace trace = recorder.take();

  for (const cfg::Configuration& config : varied_configs(space, 4)) {
    const cfg::StackSettings settings = cfg::resolve(config);
    mpisim::MpiSim interp_mpi(kRanks);
    pfs::PfsSimulator interp_fs;
    const interp::InterpResult want =
        interp::execute(program, interp_mpi, interp_fs, settings);
    mpisim::MpiSim replay_mpi(kRanks);
    pfs::PfsSimulator replay_fs;
    const replay::ReplayResult got =
        replay::replay(trace, replay_mpi, replay_fs, settings);
    EXPECT_TRUE(replay::bit_identical(want.perf, got.perf))
        << "perf diverged at " << config.to_string();
    EXPECT_TRUE(same_bits(want.sim_seconds, got.sim_seconds))
        << "sim time diverged at " << config.to_string();
  }
}

TEST(ReplayDifferential, VpicSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::vpic()));
}

TEST(ReplayDifferential, FlashSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::flash()));
}

TEST(ReplayDifferential, HaccSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::hacc()));
}

TEST(ReplayDifferential, MacsioSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::macsio_vpic()));
}

TEST(ReplayDifferential, BdcatsSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::bdcats()));
}

TEST(ReplayDifferential, DiscoveredKernels) {
  for (const char* name : kWorkloadNames) {
    discovery::DiscoveryOptions options;
    options.loop_reduction = 0.01;
    options.path_switching = true;
    const discovery::KernelResult kernel =
        discovery::discover_io(*wl::sources::source_for(name), options);
    SCOPED_TRACE(name);
    expect_replay_matches_interp(kernel.kernel);
  }
}

/// Records a native workload driver's run and checks replay matches a
/// fresh driver run under other configurations.
void expect_replay_matches_driver(const std::string& name) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::shared_ptr<const wl::Workload> workload = small_workload(name);
  replay::Recorder recorder;
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    workload->run(mpi, fs, cfg::resolve(space.default_configuration()), {});
  }
  ASSERT_TRUE(recorder.valid()) << recorder.error();
  const replay::OpTrace trace = recorder.take();

  for (const cfg::Configuration& config : varied_configs(space, 2)) {
    const cfg::StackSettings settings = cfg::resolve(config);
    mpisim::MpiSim driver_mpi(kRanks);
    pfs::PfsSimulator driver_fs;
    const wl::RunResult want =
        workload->run(driver_mpi, driver_fs, settings, {});
    mpisim::MpiSim replay_mpi(kRanks);
    pfs::PfsSimulator replay_fs;
    const replay::ReplayResult got =
        replay::replay(trace, replay_mpi, replay_fs, settings);
    EXPECT_TRUE(replay::bit_identical(want.perf, got.perf))
        << name << " perf diverged at " << config.to_string();
    EXPECT_TRUE(same_bits(want.sim_seconds, got.sim_seconds))
        << name << " sim time diverged at " << config.to_string();
  }
}

TEST(ReplayDifferential, NativeDrivers) {
  for (const char* name : kWorkloadNames) {
    SCOPED_TRACE(name);
    expect_replay_matches_driver(name);
  }
}

// --- static settings-invariance -------------------------------------------

TEST(ReplayInvariance, WorkloadSourcesAreSettingsInvariant) {
  for (const char* name : kWorkloadNames) {
    const auto source = wl::sources::source_for(name);
    ASSERT_TRUE(source.has_value()) << name;
    EXPECT_FALSE(replay::settings_dependent(minic::parse(*source))) << name;
  }
}

TEST(ReplayInvariance, UnknownWorkloadNameHasNoSource) {
  EXPECT_FALSE(wl::sources::source_for("NOT-A-WORKLOAD").has_value());
}

TEST(ReplayInvariance, TunedBranchIsSettingsDependent) {
  EXPECT_TRUE(
      replay::settings_dependent(minic::parse(kSettingsDependentKernel)));
}

TEST(ReplayInvariance, DeadTunedReadStaysInvariant) {
  // The def-use slicer proves the tuned value never reaches an op-emitting
  // statement, so the trace is reusable despite the tuned_* call.
  const minic::Program program = minic::parse(R"(
int main() {
  int unused = tuned_cb_nodes();
  int f = h5fcreate("/scratch/dead.h5");
  int d = h5dcreate(f, "x", 8, 1024 * mpi_size());
  h5dwrite_all(d, 1024);
  h5fclose(f);
  return 0;
}
)");
  EXPECT_FALSE(replay::settings_dependent(program));
}

TEST(ReplayInvariance, TunedBuiltinsReadTheSettings) {
  // tuned_* builtins must report the active configuration so a kernel can
  // genuinely branch on it (which is what disqualifies it from replay).
  const minic::Program program = minic::parse(R"(
int main() {
  return tuned_stripe_count() * 1000000 + tuned_stripe_size_kib() * 100
       + tuned_cb_nodes();
}
)");
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  cfg::Configuration config = space.default_configuration();
  config.set_index(space.index_of("striping_factor"), 3);
  const cfg::StackSettings settings = cfg::resolve(config);
  mpisim::MpiSim mpi(kRanks);
  pfs::PfsSimulator fs;
  const interp::InterpResult result =
      interp::execute(program, mpi, fs, settings);
  const std::int64_t expected =
      static_cast<std::int64_t>(settings.lustre.stripe_count.value_or(
          fs.profile().default_stripe_count)) *
          1000000 +
      static_cast<std::int64_t>(
          settings.lustre.stripe_size.value_or(
              fs.profile().default_stripe_size) /
          1024) *
          100 +
      static_cast<std::int64_t>(settings.mpiio.cb_nodes);
  EXPECT_EQ(result.exit_code, expected);
}

// --- statement-granular taint gate ----------------------------------------

/// A tuned read that is dead at every op site *by value flow*, but which
/// the def-use slicer keeps (its scope-level rule sees `s` reach the write
/// without noticing the overwrite kills the tuned value). The taint gate
/// must recover it for the fast path.
const char* kTaintRecoverableKernel = R"(
int main() {
  int s = tuned_stripe_count();
  s = 8;
  int f = h5fcreate("/scratch/recov.h5");
  int d = h5dcreate(f, "x", 8, 1024 * mpi_size());
  h5dwrite_all(d, s * 128);
  h5fclose(f);
  return 0;
}
)";

TEST(TaintGate, RecoversOverwrittenTunedRead) {
  obs::Counter& invariant =
      obs::MetricsRegistry::global().counter("replay.gate.invariant");
  const std::uint64_t before = invariant.value();
  const minic::Program program = minic::parse(kTaintRecoverableKernel);
  const replay::InvarianceReport report = replay::analyze_invariance(program);
  EXPECT_FALSE(report.dependent) << report.reason;
  EXPECT_FALSE(report.unanalyzable);
  // The def-use slicer oracle rejects this program; taint admitted it.
  EXPECT_TRUE(oracle::slicer_dependent(program));
  EXPECT_EQ(invariant.value() - before, 1u);
}

TEST(TaintGate, ReportNamesTheTaintedSite) {
  const replay::InvarianceReport report =
      replay::analyze_invariance(minic::parse(kSettingsDependentKernel));
  EXPECT_TRUE(report.dependent);
  EXPECT_FALSE(report.unanalyzable);
  EXPECT_GE(report.tainted_sites, 1);
  EXPECT_NE(report.reason.find("tuned value reaches"), std::string::npos)
      << report.reason;
}

TEST(TaintGate, InvariantProgramReportsWhy) {
  const replay::InvarianceReport report =
      replay::analyze_invariance(minic::parse(wl::sources::vpic()));
  EXPECT_FALSE(report.dependent);
  EXPECT_FALSE(report.reason.empty());
}

TEST(TaintGate, UnanalyzableProgramReportsWhy) {
  // Recursion exceeds the abstract interpreter's soundness envelope: the
  // gate must fall back to dependent and say so, not silently degrade.
  const replay::InvarianceReport report =
      replay::analyze_invariance(minic::parse(R"(
int f(int n) {
  if (n > 0) { return f(n - 1); }
  return 0;
}
int main() {
  int x = f(tuned_cb_nodes());
  int h = h5fcreate("/scratch/r.h5");
  h5fclose(h);
  return x;
}
)"));
  EXPECT_TRUE(report.dependent);
  EXPECT_TRUE(report.unanalyzable);
  EXPECT_NE(report.reason.find("static analysis failed"), std::string::npos)
      << report.reason;
}

TEST(TaintGate, TaintedControlExitIsDependent) {
  // No op site is tainted, but an early return under tainted control can
  // skip later ops — the op *stream* still depends on the settings.
  const replay::InvarianceReport report =
      replay::analyze_invariance(minic::parse(R"(
int main() {
  int f = h5fcreate("/scratch/e.h5");
  if (tuned_cb_nodes() > 2) {
    h5fclose(f);
    return 1;
  }
  int d = h5dcreate(f, "x", 8, 1024);
  h5dwrite_all(d, 64);
  h5fclose(f);
  return 0;
}
)"));
  EXPECT_TRUE(report.dependent);
}

// --- objective-level fast path --------------------------------------------

/// kVerify re-runs interpretation alongside every replay and throws on
/// divergence, so a clean pass over varied configurations is a
/// self-checking differential test. The kOff twin confirms the fast path
/// changes nothing observable.
void expect_objective_modes_agree(
    const std::function<std::unique_ptr<tuner::Objective>(
        tuner::TestbedOptions)>& make,
    int num_configs) {
  auto verified = make(testbed(tuner::ReplayMode::kVerify));
  auto interpreted = make(testbed(tuner::ReplayMode::kOff));
  auto automatic = make(testbed(tuner::ReplayMode::kAuto));
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  for (const cfg::Configuration& config :
       varied_configs(space, num_configs)) {
    const tuner::Evaluation a = verified->evaluate(config);
    const tuner::Evaluation b = interpreted->evaluate(config);
    const tuner::Evaluation c = automatic->evaluate(config);
    EXPECT_TRUE(same_bits(a.perf_mbps, b.perf_mbps));
    EXPECT_TRUE(same_bits(a.eval_seconds, b.eval_seconds));
    EXPECT_TRUE(same_bits(a.perf_mbps, c.perf_mbps));
    EXPECT_TRUE(same_bits(a.eval_seconds, c.eval_seconds));
    EXPECT_TRUE(replay::bit_identical(a.detail, c.detail));
  }
}

TEST(ReplayObjective, KernelObjectiveModesAgree) {
  discovery::DiscoveryOptions options;
  options.loop_reduction = 0.01;
  options.path_switching = true;
  const discovery::KernelResult kernel =
      discovery::discover_io(wl::sources::macsio_vpic(), options);
  expect_objective_modes_agree(
      [&](tuner::TestbedOptions tb) {
        return tuner::make_kernel_objective(kernel.kernel, tb);
      },
      5);
}

TEST(ReplayObjective, WorkloadObjectiveModesAgree) {
  for (const char* name : kWorkloadNames) {
    SCOPED_TRACE(name);
    const std::shared_ptr<const wl::Workload> workload = small_workload(name);
    expect_objective_modes_agree(
        [&](tuner::TestbedOptions tb) {
          return tuner::make_workload_objective(workload, tb);
        },
        3);
  }
}

TEST(ReplayObjective, SettingsDependentKernelFallsBack) {
  // kVerify would throw if the replay path were (wrongly) engaged for a
  // kernel whose op stream changes with the settings; the static check
  // must keep it on the interpreted path, where the two stripe-count
  // extremes legitimately produce different results.
  const minic::Program program = minic::parse(kSettingsDependentKernel);
  ASSERT_TRUE(replay::settings_dependent(program));
  auto objective = tuner::make_kernel_objective(
      program, testbed(tuner::ReplayMode::kVerify));
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::size_t stripes = space.index_of("striping_factor");
  cfg::Configuration narrow = space.default_configuration();
  narrow.set_index(stripes, 0);
  cfg::Configuration wide = space.default_configuration();
  wide.set_index(stripes,
                 space.parameter(stripes).domain.size() - 1);
  ASSERT_LE(narrow.value("striping_factor"), 4u);
  ASSERT_GT(wide.value("striping_factor"), 4u);
  const tuner::Evaluation a = objective->evaluate(narrow);
  const tuner::Evaluation b = objective->evaluate(wide);
  // The wide configuration writes 4x the data; the op streams genuinely
  // differ, which is exactly why this kernel must not be replayed.
  EXPECT_NE(a.detail.counters.bytes_written, b.detail.counters.bytes_written);
}

TEST(ReplayObjective, AutoModeReplaysFromThirdEvaluationOn) {
  obs::Counter& replayed =
      obs::MetricsRegistry::global().counter("tuner.eval.replayed");
  const std::uint64_t before = replayed.value();
  const minic::Program program = minic::parse(wl::sources::vpic());
  auto objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto));
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::vector<cfg::Configuration> configs = varied_configs(space, 5);
  // Eval 1 records, eval 2 verifies; evals 3..5 must replay.
  for (const cfg::Configuration& config : configs) {
    objective->evaluate(config);
  }
  EXPECT_EQ(replayed.value() - before, 3u);
}

TEST(ReplayObjective, TaintRecoveredKernelReplaysBitIdentically) {
  // The acceptance case for the taint-widened gate: a kernel the PR-4
  // slicer classified settings-dependent (so it never replayed) is
  // proven invariant by taint and must now ride the fast path — with
  // kVerify re-interpreting alongside every replay and throwing on any
  // bit divergence.
  const minic::Program program = minic::parse(kTaintRecoverableKernel);
  ASSERT_FALSE(replay::settings_dependent(program));
  auto objective = tuner::make_kernel_objective(
      program, testbed(tuner::ReplayMode::kVerify));
  EXPECT_TRUE(objective->replay_gate().eligible)
      << objective->replay_gate().reason;
  expect_objective_modes_agree(
      [&](tuner::TestbedOptions tb) {
        return tuner::make_kernel_objective(program, tb);
      },
      5);
  // And the fast path genuinely engages: kAuto replays from eval 3 on.
  obs::Counter& replayed =
      obs::MetricsRegistry::global().counter("tuner.eval.replayed");
  const std::uint64_t before = replayed.value();
  auto auto_objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto));
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  for (const cfg::Configuration& config : varied_configs(space, 4)) {
    auto_objective->evaluate(config);
  }
  EXPECT_EQ(replayed.value() - before, 2u);
}

TEST(ReplayObjective, GateReasonExplainsIneligibility) {
  const minic::Program program = minic::parse(kSettingsDependentKernel);
  auto objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto));
  const tuner::ReplayGate gate = objective->replay_gate();
  EXPECT_FALSE(gate.eligible);
  EXPECT_NE(gate.reason.find("tuned value reaches"), std::string::npos)
      << gate.reason;
}

TEST(ReplayObjective, ReplayModeOffNeverRecords) {
  const minic::Program program = minic::parse(wl::sources::hacc());
  auto objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kOff));
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const tuner::Evaluation a =
      objective->evaluate(space.default_configuration());
  const tuner::Evaluation b =
      objective->evaluate(space.default_configuration());
  EXPECT_TRUE(same_bits(a.perf_mbps, b.perf_mbps));
}

}  // namespace
}  // namespace tunio

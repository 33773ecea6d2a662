// Static-analysis bench: abstract-interpretation throughput and the
// replay-eligibility gate over the seed workloads plus gate-stressing
// kernel variants.
//
// Two things are measured. First, how fast `predict_cost` solves each
// seed workload (wall time, ungated — absolute rates vary per runner)
// and whether its predicted op/byte intervals contain the
// interpreter-measured ground truth (gated count: a sound analysis
// contains all five). Second, what the taint gate decides across a
// program set with known verdicts: the five seeds (no tuned reads),
// a dead tuned read, an overwritten tuned read (slicer-dependent but
// taint-invariant — the "recovered" case that widens replay
// eligibility), and two genuinely settings-dependent kernels. The
// eligible/recovered counts are gated: a gate that silently narrows
// (fewer eligible) or loses its precision edge over the def-use slicer
// (no recovered program) is a regression even if every test still
// passes.
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cost_model.hpp"
#include "common.hpp"
#include "config/stack_settings.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "mpisim/mpisim.hpp"
#include "oracle/oracle.hpp"
#include "pfs/pfs.hpp"
#include "replay/hooks.hpp"
#include "replay/invariance.hpp"
#include "replay/trace_stats.hpp"
#include "workloads/sources.hpp"

namespace tunio::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kRanks = 8;
constexpr int kSolveRounds = 50;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

replay::AppIoCounts measured(const minic::Program& program) {
  replay::Recorder recorder;
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    interp::execute(program, mpi, fs, cfg::default_settings());
  }
  return replay::app_io_counts(recorder.take());
}

bool contains_measurement(const analysis::ProgramCost& cost,
                          const replay::AppIoCounts& got) {
  const auto in = [](const analysis::Interval& i, std::uint64_t v) {
    return i.contains(static_cast<std::int64_t>(v));
  };
  return cost.analyzable && in(cost.write_ops, got.write_ops) &&
         in(cost.read_ops, got.read_ops) &&
         in(cost.bytes_written, got.bytes_written) &&
         in(cost.bytes_read, got.bytes_read) &&
         in(cost.file_opens, got.file_opens) &&
         in(cost.dataset_creates, got.dataset_creates);
}

/// Gate-stressing kernel variants with known verdicts.
const char* kOverwrittenTunedRead = R"(
int main()
{
  int f = h5fcreate("/bench/gate.h5");
  int d = h5dcreate(f, "x", 8, 65536);
  int s = tuned_stripe_count();
  s = 8;
  h5dwrite_all(d, s * 128);
  h5fclose(f);
  return 0;
}
)";

const char* kDeadTunedRead = R"(
int main()
{
  int f = h5fcreate("/bench/gate.h5");
  int d = h5dcreate(f, "x", 8, 65536);
  int unused = tuned_cb_nodes();
  h5dwrite_all(d, 1024);
  h5fclose(f);
  return 0;
}
)";

const char* kTunedWriteCount = R"(
int main()
{
  int f = h5fcreate("/bench/gate.h5");
  int d = h5dcreate(f, "x", 8, 1048576);
  h5dwrite_all(d, tuned_stripe_size_kib() * 8);
  h5fclose(f);
  return 0;
}
)";

const char* kTunedControl = R"(
int main()
{
  int f = h5fcreate("/bench/gate.h5");
  int d = h5dcreate(f, "x", 8, 65536);
  if (tuned_cb_nodes() > 4)
  {
    h5dwrite_all(d, 4096);
  }
  h5fclose(f);
  return 0;
}
)";

}  // namespace
}  // namespace tunio::bench

int main(int argc, char** argv) {
  using namespace tunio;
  using namespace tunio::bench;

  init(argc, argv, "static_analysis");
  banner("static-analysis",
         "Abstract interpretation: cost prediction + replay gate",
         "static pre-ranking and invariance evidence at ~zero tuning cost");

  const std::vector<std::pair<std::string, std::string>> seeds = {
      {"VPIC-IO", wl::sources::vpic()},
      {"FLASH-IO", wl::sources::flash()},
      {"HACC-IO", wl::sources::hacc()},
      {"MACSio", wl::sources::macsio_vpic()},
      {"BD-CATS", wl::sources::bdcats()},
  };

  section("static cost prediction (per seed workload)");
  analysis::CostOptions copts;
  copts.absint.mpi_ranks = analysis::Interval::constant(kRanks);
  int contained = 0;
  double total_solve_seconds = 0.0;
  for (const auto& [name, source] : seeds) {
    const minic::Program program =
        minic::parse(minic::print(minic::parse(source)));
    const auto start = Clock::now();
    analysis::ProgramCost cost;
    for (int round = 0; round < kSolveRounds; ++round) {
      cost = analysis::predict_cost(program, copts);
    }
    const double solve_us =
        seconds_since(start) / kSolveRounds * 1e6;
    total_solve_seconds += solve_us / 1e6;
    const bool ok = contains_measurement(cost, measured(program));
    contained += ok ? 1 : 0;
    std::printf("  %-10s solve %8.1f us  transfers %5d  contained %s\n",
                name.c_str(), solve_us, cost.solver_transfers,
                ok ? "yes" : "NO");
    value("solve_us_" + name, solve_us, "us", false,
          Direction::kLowerIsBetter);
  }
  value("seeds_cost_contained", contained, "count", true,
        Direction::kHigherIsBetter);
  value("solve_us_mean", total_solve_seconds / seeds.size() * 1e6, "us",
        false, Direction::kLowerIsBetter);

  section("replay-eligibility gate (seeds + gate-stressing variants)");
  std::vector<std::pair<std::string, std::string>> gate_programs;
  for (const auto& [name, source] : seeds) gate_programs.emplace_back(name, source);
  gate_programs.emplace_back("overwritten-tuned", kOverwrittenTunedRead);
  gate_programs.emplace_back("dead-tuned", kDeadTunedRead);
  gate_programs.emplace_back("tuned-write-count", kTunedWriteCount);
  gate_programs.emplace_back("tuned-control", kTunedControl);

  int eligible = 0;
  int dependent = 0;
  int recovered = 0;  // taint-eligible, but the slicer oracle says dependent
  double gate_seconds = 0.0;
  for (const auto& [name, source] : gate_programs) {
    const minic::Program program = minic::parse(source);
    const auto start = Clock::now();
    const replay::InvarianceReport report =
        replay::analyze_invariance(program);
    gate_seconds += seconds_since(start);
    (report.dependent ? dependent : eligible) += 1;
    if (!report.dependent && oracle::slicer_dependent(program)) ++recovered;
    std::printf("  %-18s %-9s %s\n", name.c_str(),
                report.dependent ? "dependent" : "eligible",
                report.reason.c_str());
  }
  value("gate_programs", static_cast<double>(gate_programs.size()), "count");
  value("replay_eligible", eligible, "count", true,
        Direction::kHigherIsBetter);
  value("replay_dependent", dependent, "count");
  value("taint_recovered", recovered, "count", true,
        Direction::kHigherIsBetter);
  value("gate_us_per_program",
        gate_seconds / static_cast<double>(gate_programs.size()) * 1e6, "us",
        false, Direction::kLowerIsBetter);

  section("summary");
  summary("predicted intervals contain measured I/O",
          std::to_string(contained) + "/5 seeds", "5/5 required");
  summary("replay-eligible programs",
          std::to_string(eligible) + "/" +
              std::to_string(gate_programs.size()),
          "7/9 (taint widens the PR-4 gate)");
  summary("slicer-dependent programs recovered by taint",
          std::to_string(recovered), ">= 1");

  return finish(contained == static_cast<int>(seeds.size()) ? 0 : 1);
}

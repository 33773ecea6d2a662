// Tests for the pluggable tuner backends: the registry-built GA against
// `GeneticTuner` run directly, BO/rule search quality and determinism,
// the registry, the drive() harness, and backend selection in the
// pipeline and the tuning service.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "service/tuning_server.hpp"
#include "tuner/genetic_tuner.hpp"
#include "tuner/stoppers.hpp"
#include "tuner/tuner.hpp"
#include "tuners/bo_tuner.hpp"
#include "tuners/random_tuner.hpp"
#include "tuners/registry.hpp"
#include "tuners/rule_tuner.hpp"
#include "workloads/workload.hpp"

namespace tunio::tuners {
namespace {

using tuner::drive;
using tuner::DriveOptions;
using tuner::DriveResult;

tuner::TestbedOptions small_testbed(std::uint64_t seed = 0xC0FFEE) {
  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 2;
  tb.seed = seed;
  return tb;
}

wl::RunOptions kernel_options() {
  wl::RunOptions options;
  options.compute_scale = 0.0;
  return options;
}

/// Small-size objectives over all five seed workloads.
std::unique_ptr<tuner::Objective> workload_objective(const std::string& which,
                                                     std::uint64_t seed) {
  std::unique_ptr<wl::Workload> workload;
  if (which == "hacc") {
    wl::HaccParams p;
    p.particles_per_rank = 1 << 15;
    workload = wl::make_hacc(p);
  } else if (which == "flash") {
    wl::FlashParams p;
    p.blocks_per_rank = 4;
    workload = wl::make_flash(p);
  } else if (which == "vpic") {
    wl::VpicParams p;
    p.particles_per_rank = 1 << 14;
    workload = wl::make_vpic(p);
  } else if (which == "macsio") {
    wl::MacsioParams p;
    p.num_dumps = 2;
    workload = wl::make_macsio(p);
  } else {
    wl::BdcatsParams p;
    p.particles_per_rank = 1 << 14;
    workload = wl::make_bdcats(p);
  }
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(std::move(workload)),
      small_testbed(seed), kernel_options());
}

/// Synthetic separable objective with a known optimum: rewards
/// striping_factor near 32 and collective metadata writes. Cheap, so
/// search-quality tests can afford hundreds of evaluations.
class SyntheticObjective : public tuner::Objective {
 public:
  std::string name() const override { return "synthetic"; }
  tuner::Evaluation evaluate(const cfg::Configuration& config) override {
    ++evals_;
    const double stripes =
        static_cast<double>(config.value("striping_factor"));
    const double stripe_score = 100.0 - std::abs(stripes - 32.0);
    const double meta_score =
        10.0 * static_cast<double>(config.value("coll_metadata_write"));
    tuner::Evaluation eval;
    eval.perf_mbps = stripe_score + meta_score;
    eval.eval_seconds = 30.0;
    return eval;
  }
  std::uint64_t evaluations() const override { return evals_; }

 private:
  std::uint64_t evals_ = 0;
};

tuner::GaOptions small_ga(std::uint64_t seed = 0x5EED) {
  tuner::GaOptions ga;
  ga.population = 8;
  ga.max_generations = 6;
  ga.seed = seed;
  return ga;
}

void expect_identical_results(const tuner::TuningResult& a,
                              const tuner::TuningResult& b) {
  EXPECT_EQ(a.initial_perf, b.initial_perf);
  EXPECT_EQ(a.best_perf, b.best_perf);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.generations_run, b.generations_run);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].generation_best_perf,
              b.history[i].generation_best_perf);
    EXPECT_EQ(a.history[i].best_perf, b.history[i].best_perf);
    EXPECT_EQ(a.history[i].cumulative_seconds,
              b.history[i].cumulative_seconds);
    EXPECT_EQ(a.history[i].subset, b.history[i].subset);
  }
  ASSERT_EQ(a.best_config.has_value(), b.best_config.has_value());
  if (a.best_config.has_value()) {
    EXPECT_EQ(a.best_config->indices(), b.best_config->indices());
  }
}

// --- GA backend ----------------------------------------------------------

TEST(GaBackend, RegistryGaMatchesRunOnAllSeedWorkloads) {
  // The registry path the pipeline and the server use reproduces a
  // directly constructed GA's `run()`: `spec_from_ga` and `make_tuner`
  // hand the GA exactly its options.
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  for (const std::string which :
       {"hacc", "flash", "vpic", "macsio", "bdcats"}) {
    // Fresh objectives with the same testbed seed: evaluations are
    // deterministic in (seed, genome), so both searches see the same
    // landscape.
    auto direct_objective = workload_objective(which, 42);
    tuner::GeneticTuner direct(space, *direct_objective, small_ga());
    const tuner::TuningResult expected = direct.run();

    auto driven_objective = workload_objective(which, 42);
    auto ga = make_tuner("ga", space, *driven_objective,
                         spec_from_ga(small_ga()));
    const DriveResult driven = drive(*ga, *driven_objective);

    SCOPED_TRACE(which);
    expect_identical_results(expected, driven.tuning);
  }
}

TEST(GaBackend, RegistryGaMatchesDirectGaUnderStopper) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  tuner::GaOptions ga = small_ga(0xABC);
  ga.max_generations = 12;
  DriveOptions options;
  options.stopper = tuner::make_heuristic_stopper();

  auto direct_objective = workload_objective("hacc", 7);
  tuner::GeneticTuner direct(space, *direct_objective, ga);
  const DriveResult expected =
      drive(direct, *direct_objective, options);

  auto driven_objective = workload_objective("hacc", 7);
  auto backend =
      make_tuner("ga", space, *driven_objective, spec_from_ga(ga));
  const DriveResult driven =
      drive(*backend, *driven_objective, options);

  EXPECT_TRUE(expected.tuning.early_stopped);
  expect_identical_results(expected.tuning, driven.tuning);
}

TEST(GaBackend, RunMatchesManualSteppingLoop) {
  // The Tuner interface itself reproduces run(): drive the GA by hand.
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto a = workload_objective("vpic", 3);
  tuner::GeneticTuner direct(space, *a, small_ga());
  const tuner::TuningResult expected = direct.run();

  auto b = workload_objective("vpic", 3);
  tuner::GeneticTuner stepped(space, *b, small_ga());
  while (!stepped.done()) {
    const std::vector<cfg::Configuration> batch = stepped.propose();
    stepped.observe(b->evaluate_batch(batch));
  }
  expect_identical_results(expected, stepped.progress());
}

// --- search quality ------------------------------------------------------

/// Fresh evaluations spent until `run` first reached `target` (the max
/// possible count if it never did).
std::uint64_t evals_to_reach(const DriveResult& run, double target) {
  for (std::size_t i = 0; i < run.tuning.history.size(); ++i) {
    if (run.tuning.history[i].best_perf >= target) return run.evaluations[i];
  }
  return run.fresh_evaluations + 1;
}

TEST(BoTuner, MoreSampleEfficientThanRandomOnSyntheticObjective) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  // One seed is a coin flip (random search can get lucky on a smooth
  // landscape); aggregate evals-to-optimum over several seeds is what
  // the surrogate must actually win. Deterministic: fixed seed set.
  std::uint64_t bo_total = 0;
  std::uint64_t random_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TunerSpec spec;
    spec.seed = seed;
    spec.batch = 8;
    spec.max_iterations = 8;

    SyntheticObjective bo_objective;
    auto bo = make_tuner("bo", space, bo_objective, spec);
    const DriveResult bo_run = drive(*bo, bo_objective);
    bo_total += evals_to_reach(bo_run, 110.0);
    EXPECT_GT(bo_run.tuning.best_perf, 105.0) << "seed " << seed;

    SyntheticObjective random_objective;
    auto random = make_tuner("random", space, random_objective, spec);
    const DriveResult random_run = drive(*random, random_objective);
    random_total += evals_to_reach(random_run, 110.0);
  }
  EXPECT_LT(bo_total, random_total);
}

TEST(BoTuner, DeterministicAcrossIdenticalDrives) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  BoOptions options;
  options.max_iterations = 5;

  SyntheticObjective a_objective;
  BoTuner a(space, options);
  const DriveResult run_a = drive(a, a_objective);

  SyntheticObjective b_objective;
  BoTuner b(space, options);
  const DriveResult run_b = drive(b, b_objective);

  expect_identical_results(run_a.tuning, run_b.tuning);
  EXPECT_EQ(run_a.fresh_evaluations, run_b.fresh_evaluations);
}

TEST(BoTuner, WarmupLeadsWithSeedConfiguration) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  BoOptions options;
  std::vector<std::size_t> seed(space.num_parameters(), 0);
  seed[0] = 1;
  options.seed_indices = seed;
  BoTuner bo(space, options);
  const std::vector<cfg::Configuration> warmup = bo.propose();
  ASSERT_FALSE(warmup.empty());
  EXPECT_EQ(warmup.front().indices(), seed);
}

TEST(RuleTuner, HintedParameterIsSweptFirst) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  RuleOptions options;
  options.hints = {{"striping_factor", 1.0}};
  RuleTuner rule(space, options);
  ASSERT_FALSE(rule.sweep_order().empty());
  EXPECT_EQ(rule.sweep_order().front(), space.index_of("striping_factor"));
}

TEST(RuleTuner, ConvergesToSyntheticOptimumAndStops) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  RuleOptions options;
  options.hints = {{"striping_factor", 1.0}, {"coll_metadata_write", 0.5}};
  SyntheticObjective objective;
  RuleTuner rule(space, options);
  const DriveResult run = drive(rule, objective);

  // Coordinate descent on a separable objective finds the exact optimum
  // and then stops on its own (a full pass without improvement).
  EXPECT_DOUBLE_EQ(run.tuning.best_perf, 110.0);
  EXPECT_TRUE(rule.done());
  ASSERT_TRUE(run.tuning.best_config.has_value());
  EXPECT_EQ(run.tuning.best_config->value("striping_factor"), 32u);
  EXPECT_EQ(run.tuning.best_config->value("coll_metadata_write"), 1u);
}

TEST(RuleTuner, DeterministicAndNeverRepeatsAnEvaluation) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective a_objective;
  RuleTuner a(space, {});
  const DriveResult run_a = drive(a, a_objective);

  SyntheticObjective b_objective;
  RuleTuner b(space, {});
  const DriveResult run_b = drive(b, b_objective);

  expect_identical_results(run_a.tuning, run_b.tuning);
  // The sweep dedups against every genome already evaluated.
  EXPECT_EQ(run_a.fresh_evaluations, a_objective.evaluations());
}

// --- registry ------------------------------------------------------------

TEST(Registry, BuildsEveryRegisteredBackend) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  for (const std::string& name : backend_names()) {
    EXPECT_TRUE(is_backend(name));
    auto tuner = make_tuner(name, space, objective, {});
    ASSERT_NE(tuner, nullptr);
    EXPECT_EQ(tuner->name(), name);
    EXPECT_FALSE(tuner->done());
  }
  EXPECT_FALSE(is_backend("simulated-annealing"));
  EXPECT_THROW(make_tuner("simulated-annealing", space, objective, {}),
               InvalidArgument);
}

// --- drive() harness -----------------------------------------------------

TEST(Driver, BudgetStopsAtIterationBoundary) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  RandomOptions options;
  options.batch = 4;
  options.max_iterations = 100;
  RandomTuner random(space, options);
  DriveOptions drive_options;
  // Each batch bills 4 * 30s; the budget covers exactly 3 iterations.
  drive_options.budget_seconds = 3 * 4 * 30.0;
  const DriveResult run = drive(random, objective, drive_options);
  EXPECT_EQ(run.tuning.generations_run, 3u);
  EXPECT_FALSE(run.tuning.early_stopped);  // budget, not stopper
  EXPECT_EQ(run.fresh_evaluations, 12u);
  ASSERT_EQ(run.evaluations.size(), 3u);
  EXPECT_EQ(run.evaluations.back(), 12u);
}

TEST(Driver, StopperTerminatesAndMarksEarlyStopped) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  RandomTuner random(space, {});
  DriveOptions drive_options;
  drive_options.stopper = [](unsigned generation, const tuner::TuningResult&) {
    return generation >= 1;
  };
  const DriveResult run = drive(random, objective, drive_options);
  EXPECT_EQ(run.tuning.generations_run, 2u);
  EXPECT_TRUE(run.tuning.early_stopped);
  EXPECT_TRUE(random.done());
}

TEST(Driver, MaxIterationsCapsTheBackendHorizon) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  RandomTuner random(space, {});  // backend horizon: 50 iterations
  DriveOptions drive_options;
  drive_options.max_iterations = 4;
  const DriveResult run = drive(random, objective, drive_options);
  EXPECT_EQ(run.tuning.generations_run, 4u);
  EXPECT_FALSE(run.tuning.early_stopped);
}

TEST(Driver, SurfacesReplayGateVerdictAndReason) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  DriveOptions drive_options;
  drive_options.max_iterations = 1;
  {
    // Custom objectives carry no invariance evidence: ineligible, with
    // the default explanation.
    SyntheticObjective objective;
    RandomTuner random(space, {});
    const DriveResult run = drive(random, objective, drive_options);
    EXPECT_FALSE(run.replay_eligible);
    EXPECT_FALSE(run.replay_gate_reason.empty());
  }
  {
    // A settings-invariant kernel objective is eligible, and the reason
    // says why the gate admitted it.
    auto objective = workload_objective("vpic", 0xAB);
    RandomTuner random(space, {});
    const DriveResult run = drive(random, *objective, drive_options);
    EXPECT_TRUE(run.replay_eligible) << run.replay_gate_reason;
    EXPECT_FALSE(run.replay_gate_reason.empty());
  }
}

TEST(Driver, ReportsInitialPerfFromFirstConfiguration) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  RandomTuner random(space, {});
  DriveOptions drive_options;
  drive_options.max_iterations = 2;
  const DriveResult run = drive(random, objective, drive_options);
  // The first configuration of the first batch is the stack defaults.
  SyntheticObjective probe;
  const double default_perf =
      probe.evaluate(space.default_configuration()).perf_mbps;
  EXPECT_DOUBLE_EQ(run.tuning.initial_perf, default_perf);
}

// --- pipeline / service integration -------------------------------------

TEST(PipelineBackend, RuleBackendRunsThroughRunPipeline) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto objective = workload_objective("hacc", 11);
  core::PipelineVariant variant{"rule-backend"};
  variant.backend = "rule";
  variant.hints = {{"striping_factor", 1.0}};
  const core::PipelineRun run = core::run_pipeline(
      space, *objective, nullptr, variant, small_ga());
  EXPECT_EQ(run.backend, "rule");
  EXPECT_GT(run.result.best_perf, 0.0);
  EXPECT_GE(run.result.best_perf, run.result.initial_perf);
}

TEST(PipelineBackend, GaBackendMatchesHistoricalDefaultPath) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto a = workload_objective("flash", 13);
  const core::PipelineRun legacy = core::run_pipeline(
      space, *a, nullptr, {"legacy", false, core::StopPolicy::kNone},
      small_ga());

  auto b = workload_objective("flash", 13);
  core::PipelineVariant variant{"explicit-ga"};
  variant.backend = "ga";
  const core::PipelineRun selected =
      core::run_pipeline(space, *b, nullptr, variant, small_ga());

  EXPECT_EQ(selected.backend, "ga");
  expect_identical_results(legacy.result, selected.result);
}

TEST(TuningServer, RunsNonGaBackendJobs) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  service::TuningServer server(space);

  service::JobSpec spec;
  spec.name = "bo-job";
  spec.backend = "bo";
  spec.objective = std::make_shared<SyntheticObjective>();
  spec.ga = small_ga();
  const service::JobId id = server.submit(spec);
  const tuner::TuningResult result = server.wait(id);

  EXPECT_GT(result.best_perf, 0.0);
  EXPECT_EQ(result.generations_run, small_ga().max_generations);
  const service::JobProgress progress = server.progress(id);
  EXPECT_EQ(progress.backend, "bo");
  EXPECT_EQ(progress.state, service::JobState::kDone);
  EXPECT_GT(progress.best_perf, 0.0);
}

TEST(TuningServer, RejectsUnknownBackend) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  service::TuningServer server(space);
  service::JobSpec spec;
  spec.name = "bogus";
  spec.backend = "hillclimb";
  spec.objective = std::make_shared<SyntheticObjective>();
  EXPECT_THROW(server.submit(spec), Error);
}

/// Synthetic objective slowed by a wall-clock sleep per evaluation, to
/// make the cancellation race testable (the same trick service_test
/// uses).
class SlowSyntheticObjective final : public SyntheticObjective {
 public:
  tuner::Evaluation evaluate(const cfg::Configuration& config) override {
    std::this_thread::sleep_for(std::chrono::microseconds(2000));
    return SyntheticObjective::evaluate(config);
  }
};

TEST(TuningServer, CancelsNonGaBackendJobAtIterationBoundary) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  service::ServerOptions server_options;
  server_options.max_concurrent_jobs = 1;
  service::TuningServer server(space, server_options);

  service::JobSpec spec;
  spec.name = "cancel-me";
  spec.backend = "random";
  spec.objective = std::make_shared<SlowSyntheticObjective>();
  spec.ga = small_ga();
  spec.ga.max_generations = 10'000;  // far more than we allow to run
  const service::JobId id = server.submit(spec);
  while (server.progress(id).generations_done < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Cooperative cancel: takes effect at the next iteration boundary.
  EXPECT_TRUE(server.cancel(id));
  const tuner::TuningResult partial = server.wait(id);
  const service::JobProgress progress = server.progress(id);
  EXPECT_EQ(progress.state, service::JobState::kCancelled);
  EXPECT_GE(partial.generations_run, 1u);
  EXPECT_LT(partial.generations_run, 10'000u);
}

}  // namespace
}  // namespace tunio::tuners

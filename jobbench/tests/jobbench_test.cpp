// Tests of the benchmark's own logic: span self-time arithmetic, the
// percentile sample-count rule, generator determinism, the objective
// wrappers, and the output check rejecting a perturbed result.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "discovery/discovery.hpp"
#include "harness/check.hpp"
#include "harness/jobs.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/timed_objective.hpp"
#include "replay/invariance.hpp"
#include "service/eval_engine.hpp"
#include "tuner/genetic_tuner.hpp"

namespace jobbench {
namespace {

namespace cfg = tunio::cfg;
namespace tuner = tunio::tuner;

Span span(std::int64_t start, std::int64_t end) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Spans, CoveredCountsOverlapOnce) {
  EXPECT_EQ(covered_ns({}), 0);
  EXPECT_EQ(covered_ns({{0, 10}, {20, 30}}), 20);
  EXPECT_EQ(covered_ns({{0, 10}, {5, 15}, {15, 20}}), 20);
  EXPECT_EQ(covered_ns({{30, 40}, {0, 50}}), 50);
  EXPECT_EQ(covered_ns({{10, 10}, {7, 3}}), 0);  // empty and inverted
}

TEST(Spans, SelfTimeClipsChildrenToParent) {
  const Span parent = span(0, 100);
  // [10,40) from two overlapping children, [90,100) and [0,5) clipped.
  const std::vector<Span> children = {span(10, 30), span(20, 40),
                                      span(90, 120), span(-5, 5)};
  EXPECT_EQ(self_ns(parent, children), 100 - 30 - 10 - 5);
  EXPECT_EQ(self_ns(parent, {}), 100);
  EXPECT_EQ(self_ns(parent, {span(-10, 200)}), 0);
}

TEST(Spans, RecordingIsOffByDefaultAndCollectedPerThread) {
  collect();
  { ScopedSpan ignored("off", 1); }
  EXPECT_TRUE(collect().empty());
  set_enabled(true);
  std::uint64_t parent_id = 0;
  {
    ScopedSpan parent("parent", 7);
    parent_id = parent.id();
    std::thread([parent_id] { ScopedSpan child("child", 7, parent_id); })
        .join();
  }
  set_enabled(false);
  const std::vector<Span> spans = collect();
  ASSERT_EQ(spans.size(), 2u);
  std::set<std::string> names;
  for (const Span& s : spans) {
    names.insert(s.name);
    EXPECT_EQ(s.job, 7u);
    EXPECT_LE(s.start_ns, s.end_ns);
    if (std::string(s.name) == "child") {
      EXPECT_EQ(s.parent, parent_id);
    }
  }
  EXPECT_EQ(names, (std::set<std::string>{"parent", "child"}));
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(min_samples_for(0.9), 100u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  EXPECT_FALSE(tail_percentile(samples, 0.9).has_value());
  samples.push_back(100);
  ASSERT_TRUE(tail_percentile(samples, 0.9).has_value());
  EXPECT_EQ(*tail_percentile(samples, 0.9), 90.0);
  EXPECT_FALSE(tail_percentile(samples, 0.99).has_value());
}

TEST(Stats, MedianAndMean) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(mean({1, 2, 3}), 2.0);
}

TEST(Jobs, SameSeedSameJobList) {
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(describe(churn_job(42, i)), describe(churn_job(42, i)));
    EXPECT_EQ(describe(paper_job(Workload::kPaperCheckpoint, 42, i)),
              describe(paper_job(Workload::kPaperCheckpoint, 42, i)));
    EXPECT_EQ(describe(paper_job(Workload::kPaperRead, 42, i)),
              describe(paper_job(Workload::kPaperRead, 42, i)));
  }
  std::size_t differ = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    differ += describe(churn_job(42, i)) != describe(churn_job(43, i));
  }
  EXPECT_GT(differ, 12u);
}

TEST(Jobs, PaperCheckpointCyclesWriteKernels) {
  const std::vector<std::string> expected = {"HACC-IO", "FLASH-IO", "VPIC-IO",
                                             "MACSio"};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(paper_job(Workload::kPaperCheckpoint, 5, i).workload->name(),
              expected[i % 4]);
    EXPECT_EQ(paper_job(Workload::kPaperRead, 5, i).workload->name(),
              "BD-CATS");
  }
}

TEST(Jobs, PaperSizeMixIsTheSameForEverySeed) {
  for (Workload w : {Workload::kPaperCheckpoint, Workload::kPaperRead}) {
    std::multiset<std::string> a, b;
    for (std::size_t i = 0; i < 100; ++i) {
      const PaperJob x = paper_job(w, 11, i);
      const PaperJob y = paper_job(w, 12, i);
      a.insert(x.workload->name() + " " + x.params);
      b.insert(y.workload->name() + " " + y.params);
    }
    EXPECT_EQ(a, b);
    EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(),
              w == Workload::kPaperRead ? 5u : 20u);
  }
}

TEST(Jobs, ChurnMixIsStratifiedAndConfirmedByTheReplayGate) {
  constexpr std::size_t kJobs = 8 + 4 * 40;  // 128 originals, 40 repeats
  std::size_t originals = 0, dependent = 0, repeats = 0;
  std::set<std::string> pairs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const ChurnJob job = churn_job(7, i);
    EXPECT_GE(job.ranks, 8u);
    EXPECT_LE(job.ranks, 32u);
    if (job.repeat_of) {
      ++repeats;
      ASSERT_LE(*job.repeat_of + kRepeatDistance, i);
      ASSERT_GE(*job.repeat_of + kRepeatWindow, i);
      const ChurnJob original = churn_job(7, *job.repeat_of);
      EXPECT_FALSE(original.repeat_of.has_value());
      EXPECT_EQ(job.source, original.source);
      EXPECT_EQ(job.backend, original.backend);
      EXPECT_EQ(job.tuner_seed, original.tuner_seed);
      continue;
    }
    if (originals < 20) pairs.insert(job.template_name + "/" + job.backend);
    ++originals;
    const auto kernel = tunio::discovery::discover_io(job.source);
    const auto report = tunio::replay::analyze_invariance(kernel.kernel);
    EXPECT_EQ(report.dependent, job.settings_dependent)
        << i << ": " << report.reason << "\n" << job.source;
    dependent += report.dependent;
  }
  EXPECT_EQ(repeats, 40u);
  EXPECT_EQ(originals, 128u);
  EXPECT_EQ(dependent, 32u);
  EXPECT_EQ(pairs.size(), 20u);  // 5 templates x 4 backends per block
}

TEST(Jobs, UnknownWorkloadIsRejected) {
  EXPECT_FALSE(parse_workload("paper").has_value());
  for (Workload w : {Workload::kPaperCheckpoint, Workload::kPaperRead,
                     Workload::kServiceChurn}) {
    EXPECT_EQ(parse_workload(workload_name(w)), w);
  }
}

/// A small invariant kernel from the churn generator.
std::shared_ptr<tuner::Objective> small_objective(tuner::ReplayMode mode) {
  for (std::size_t i = 0;; ++i) {
    const ChurnJob job = churn_job(3, i);
    if (job.settings_dependent || job.repeat_of) continue;
    tuner::TestbedOptions tb;
    tb.num_ranks = job.ranks;
    tb.seed = job.testbed_seed;
    tb.replay = mode;
    return tuner::make_kernel_objective(
        tunio::discovery::discover_io(job.source).kernel, tb);
  }
}

TEST(TimedObjective, ForwardsGateAndCountsBatches) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto raw = small_objective(tuner::ReplayMode::kAuto);
  tunio::service::EvalEngine engine({2});
  EvalTimer eval(raw, 1);
  EXPECT_EQ(eval.concurrent_safe(), raw->concurrent_safe());
  BatchTimer batch(raw, engine, 1, 0);
  EXPECT_TRUE(batch.replay_gate().eligible);
  EXPECT_EQ(batch.replay_gate().reason, raw->replay_gate().reason);
  EXPECT_FALSE(batch.concurrent_safe());

  tuner::GaOptions ga;
  ga.population = 4;
  ga.max_generations = 3;
  tuner::GeneticTuner tuner(space, batch, ga);
  const tuner::TuningResult result = tuner.run();
  ASSERT_EQ(batch.fresh_after_batch().size(), result.history.size());
  EXPECT_EQ(batch.fresh_after_batch().back(), raw->evaluations());
  EXPECT_GT(batch.first_batch_ns(), 0);
}

TEST(Check, RejectsAPerturbedResult) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto objective = small_objective(tuner::ReplayMode::kAuto);
  tuner::GaOptions ga;
  ga.population = 6;
  ga.max_generations = 4;
  const tuner::TuningResult result =
      tuner::GeneticTuner(space, *objective, ga).run();
  auto fresh = small_objective(tuner::ReplayMode::kOff);
  EXPECT_TRUE(best_reproduces(result, *fresh));
  EXPECT_TRUE(same_outcome(result, result));

  tuner::TuningResult wrong_perf = result;
  wrong_perf.best_perf = std::nextafter(result.best_perf, 0.0);
  EXPECT_FALSE(best_reproduces(wrong_perf, *fresh));
  EXPECT_FALSE(same_outcome(result, wrong_perf));

  // A best configuration that does not score the reported perf.
  tuner::TuningResult wrong_config = result;
  cfg::Configuration other = space.default_configuration();
  if (other == *result.best_config) other.set_index(0, 1);
  wrong_config.best_config = other;
  if (fresh->evaluate(other).perf_mbps != result.best_perf) {
    EXPECT_FALSE(best_reproduces(wrong_config, *fresh));
  }
  EXPECT_FALSE(same_outcome(result, wrong_config));

  tuner::TuningResult no_config = result;
  no_config.best_config.reset();
  EXPECT_FALSE(best_reproduces(no_config, *fresh));

  tuner::TuningResult wrong_budget = result;
  wrong_budget.total_seconds += 1.0;
  EXPECT_FALSE(same_outcome(result, wrong_budget));
}

}  // namespace
}  // namespace jobbench

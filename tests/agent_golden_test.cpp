// Golden-hash pins for the RL agents' training.
//
// Every weight and bias of every network the agents own is hashed bit for
// bit at three points: after the early stopper's offline training (on the
// default and on the 30-epoch schedule), after Smart Configuration
// Generation's offline training on the HACC kernel, and after a
// 12-generation online episode of `stop()`/`subset_picker` calls, whose
// decisions are pinned too. Any change to the training arithmetic — even
// one that only moves the last bit of one weight — fails these tests, so
// performance work on `src/nn`/`src/rl` must keep every result exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "config/space.hpp"
#include "core/early_stopping.hpp"
#include "core/smart_config.hpp"
#include "nn/dense_net.hpp"
#include "rl/q_agent.hpp"
#include "tuner/objective.hpp"
#include "workloads/workload.hpp"

namespace tunio::core {
namespace {

/// FNV-1a over the bit patterns of a sequence of doubles.
class BitHash {
 public:
  void add(double value) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(const std::vector<double>& values) {
    for (double v : values) add(v);
  }
  void add(const nn::DenseNet& net) { add(net.parameters()); }
  void add(const rl::QAgent& agent) {
    add(agent.network());
    add(agent.target_network());
  }
  std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// The schedule the job benchmark trains (up to 30 epochs).
EarlyStoppingOptions short_schedule() {
  EarlyStoppingOptions options;
  options.max_epochs = 30;
  options.min_epochs = 10;
  return options;
}

void train_on_hacc(SmartConfigGen& generator) {
  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 1;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  auto hacc = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc()), tb, kernel);
  generator.train_offline({hacc.get()});
}

std::string smart_config_hash(const SmartConfigGen& generator) {
  BitHash hash;
  hash.add(generator.observer().network());
  hash.add(generator.picker());
  hash.add(generator.impact_scores());
  return hash.hex();
}

TEST(AgentGolden, EarlyStopperDefaultSchedule) {
  EarlyStopping stopper;
  const std::vector<double> log = stopper.train_offline();
  BitHash rewards;
  rewards.add(log);
  BitHash weights;
  weights.add(stopper.agent());
  EXPECT_EQ(log.size(), 40u);
  EXPECT_EQ(rewards.hex(), "0d59ab96e20dad47");
  EXPECT_EQ(weights.hex(), "35c8212bb73e7eec");
}

TEST(AgentGolden, EarlyStopperShortSchedule) {
  EarlyStopping stopper(short_schedule());
  const std::vector<double> log = stopper.train_offline();
  BitHash rewards;
  rewards.add(log);
  BitHash weights;
  weights.add(stopper.agent());
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(rewards.hex(), "fcbbef78cf7532fb");
  EXPECT_EQ(weights.hex(), "448af9c5e5f0a78e");
}

TEST(AgentGolden, SmartConfigOnHacc) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SmartConfigGen generator(space);
  train_on_hacc(generator);
  EXPECT_EQ(smart_config_hash(generator), "e22e4cfafa8d9035");
}

TEST(AgentGolden, OnlineEpisode) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SmartConfigGen generator(space);
  train_on_hacc(generator);
  EarlyStopping stopper(short_schedule());
  stopper.train_offline();

  // A tuning run that rises for six generations, then plateaus.
  generator.reset_episode();
  stopper.reset_episode();
  std::vector<std::size_t> subset;
  std::string decisions;
  double best = 0.0;
  for (unsigned g = 0; g < 12; ++g) {
    const double perf = 4000.0 + 3000.0 * std::min(g, 6u) + 37.0 * (g % 3);
    best = std::max(best, perf);
    subset = generator.subset_picker(perf, subset);
    const bool stop = stopper.stop(g, best);
    decisions += std::to_string(subset.size()) + (stop ? "S " : "C ");
  }
  BitHash weights;
  weights.add(stopper.agent());
  EXPECT_EQ(decisions, "4C 10C 2C 4C 2C 4C 2C 4C 3C 4S 2S 10S ");
  EXPECT_EQ(weights.hex(), "e263a5be1cab43d7");
  EXPECT_EQ(smart_config_hash(generator), "1b05eb07ded764ad");
}

}  // namespace
}  // namespace tunio::core

// Golden-hash pins for the search loop and for I/O discovery.
//
// Every tuning entry point — `GeneticTuner::run`, a GA driven under a
// stopper, `core::run_pipeline` with TunIO's agents wired in (serial and
// through the service layer), a `TuningServer` GA job with a user
// stopper, and an `InteractiveSession` — is hashed bit for bit over its
// full `TuningResult`: every history entry, the best configuration's
// indices, the simulated budget and the early-stop flag. The kernels
// `discover_io` extracts from the five seed applications are pinned the
// same way, plain and with each reduction. Any drift in the RNG draw
// order, the evaluation batches, the stop decision or the kept-statement
// set fails here, so refactors of the search loop or of discovery must
// keep every result exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/slicer.hpp"
#include "common/error.hpp"
#include "config/space.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "core/tunio.hpp"
#include "discovery/discovery.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "service/eval_engine.hpp"
#include "service/result_cache.hpp"
#include "service/tuning_server.hpp"
#include "tuner/genetic_tuner.hpp"
#include "tuner/stoppers.hpp"
#include "tuner/tuner.hpp"
#include "workloads/sources.hpp"
#include "workloads/workload.hpp"

namespace tunio {
namespace {

/// FNV-1a over bit patterns.
class BitHash {
 public:
  void add_bits(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double value) { add_bits(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::string& text) {
    add_bits(text.size());
    for (char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(const tuner::TuningResult& result) {
    add(result.initial_perf);
    add(result.best_perf);
    add(result.total_seconds);
    add_bits(result.generations_run);
    add_bits(result.early_stopped ? 1 : 0);
    add_bits(result.history.size());
    for (const tuner::GenerationStats& stats : result.history) {
      add_bits(stats.generation);
      add(stats.generation_best_perf);
      add(stats.best_perf);
      add(stats.cumulative_seconds);
      add_bits(stats.subset.size());
      for (std::size_t g : stats.subset) add_bits(g);
    }
    add_bits(result.best_config.has_value() ? 1 : 0);
    if (result.best_config.has_value()) {
      for (std::size_t index : result.best_config->indices()) add_bits(index);
    }
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

std::string hash_of(const tuner::TuningResult& result) {
  BitHash hash;
  hash.add(result);
  return hash.hex();
}

wl::RunOptions kernel_options() {
  wl::RunOptions options;
  options.compute_scale = 0.0;
  return options;
}

/// Small-size objectives over the five seed workloads.
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
  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 2;
  tb.seed = seed;
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(std::move(workload)), tb,
      kernel_options());
}

tuner::GaOptions small_ga(unsigned generations, std::uint64_t seed) {
  tuner::GaOptions ga;
  ga.population = 8;
  ga.max_generations = generations;
  ga.seed = seed;
  return ga;
}

/// TunIO with both agents trained once (HACC sweep, 30-epoch stopper
/// schedule); every test starts from a copy. The stopper's normalizer is
/// scaled to the small testbed's ~1.6 GB/s so the RL stop decision fires
/// inside the pinned runs.
const core::TunIO& trained_tunio() {
  static const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  static const core::TunIO* trained = [] {
    core::TunioOptions options;
    options.early_stopping.max_epochs = 30;
    options.early_stopping.min_epochs = 10;
    options.early_stopping.perf_normalizer_mbps = 4000.0;
    auto* tunio = new core::TunIO(space, options);
    tuner::TestbedOptions tb;
    tb.num_ranks = 16;
    tb.runs_per_eval = 1;
    auto hacc = tuner::make_workload_objective(
        std::shared_ptr<const wl::Workload>(wl::make_hacc()), tb,
        kernel_options());
    tunio->train_offline({hacc.get()});
    return tunio;
  }();
  return *trained;
}

const char* const kSeedWorkloads[] = {"hacc", "flash", "vpic", "macsio",
                                      "bdcats"};

TEST(SearchGolden, GeneticTunerRunOnSeedWorkloads) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::vector<std::string> expected = {
      "c2ae12e316d611f3", "709e87442875098b", "171c20167a77eec0",
      "fba32e82a3b8cc7f", "2ef4cfab8df67a03"};
  for (std::size_t w = 0; w < 5; ++w) {
    auto objective = workload_objective(kSeedWorkloads[w], 42);
    tuner::GeneticTuner tuner(space, *objective, small_ga(6, 0x5EED));
    EXPECT_EQ(hash_of(tuner.run()), expected[w]) << kSeedWorkloads[w];
  }
}

TEST(SearchGolden, GeneticTunerRunUnderHeuristicStopper) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  // hacc, vpic and bdcats stop early (10, 10, 6 generations); flash and
  // macsio run all 16.
  const std::vector<std::string> expected = {
      "509c373b32dc57c6", "33b614a5fa824961", "2d8d30e299d623c3",
      "96e63093642b8cb2", "fc0a3ddfbf5fc4f8"};
  for (std::size_t w = 0; w < 5; ++w) {
    auto objective = workload_objective(kSeedWorkloads[w], 7);
    tuner::GeneticTuner tuner(space, *objective, small_ga(16, 0xABC));
    tuner::DriveOptions options;
    options.stopper = tuner::make_heuristic_stopper();
    const tuner::TuningResult result =
        tuner::drive(tuner, *objective, options).tuning;
    EXPECT_EQ(hash_of(result), expected[w])
        << kSeedWorkloads[w] << " early_stopped=" << result.early_stopped
        << " generations=" << result.generations_run;
  }
}

const core::PipelineVariant kTunioVariant("TunIO", /*impact_first=*/true,
                                          core::StopPolicy::kTunio);

TEST(SearchGolden, TunioPipelineOnHacc) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  core::TunIO tunio(trained_tunio());
  auto objective = workload_objective("hacc", 11);
  const core::PipelineRun run = core::run_pipeline(
      space, *objective, &tunio, kTunioVariant, small_ga(40, 0x7A11));
  // The RL stopper ends this run after 25 of 40 generations.
  EXPECT_TRUE(run.result.early_stopped);
  EXPECT_EQ(run.result.generations_run, 25u);
  EXPECT_EQ(hash_of(run.result), "4a676a5cd3940adf");
}

TEST(SearchGolden, TunioPipelineOnHaccThroughServiceLayer) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  core::TunIO tunio(trained_tunio());
  auto objective = workload_objective("hacc", 11);
  service::EvalEngine engine({2});
  service::ResultCache cache({256, 4});
  const core::PipelineRun run =
      core::run_pipeline(space, *objective, &tunio, kTunioVariant,
                         small_ga(40, 0x7A11), {&engine, &cache, 0x4ACC});
  // The service layer never changes an outcome: same pin as serial.
  EXPECT_EQ(hash_of(run.result), "4a676a5cd3940adf");
}

TEST(SearchGolden, TuningServerGaJobWithUserStopper) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  service::ServerOptions options;
  options.max_concurrent_jobs = 1;
  options.engine.workers = 2;
  service::TuningServer server(space, options);
  service::JobSpec spec;
  spec.name = "golden-ga";
  spec.objective = workload_objective("flash", 5);
  spec.ga = small_ga(16, 0xF1A5);
  spec.stopper = tuner::make_heuristic_stopper();
  const tuner::TuningResult result = server.wait(server.submit(spec));
  EXPECT_TRUE(result.early_stopped);
  EXPECT_EQ(result.generations_run, 9u);
  EXPECT_EQ(hash_of(result), "0a39bee1679afb5a");
}

TEST(SearchGolden, InteractiveSessionTwoSteps) {
  core::TunIO tunio(trained_tunio());
  auto objective = workload_objective("vpic", 3);
  core::InteractiveSession session(tunio, *objective, small_ga(0, 0x5E55));
  const tuner::TuningResult first = session.step(5);
  const tuner::TuningResult second = session.step(5);
  EXPECT_EQ(hash_of(first), "6ee78fb51766e5f8");
  EXPECT_EQ(hash_of(second), "f847f2a70408cd0c");
}

TEST(DiscoveryGolden, SeedKernelSources) {
  const std::vector<std::string> sources = {
      wl::sources::macsio_vpic(), wl::sources::vpic(), wl::sources::flash(),
      wl::sources::hacc(), wl::sources::bdcats()};
  discovery::DiscoveryOptions plain;
  discovery::DiscoveryOptions reduced;
  reduced.loop_reduction = 0.01;
  discovery::DiscoveryOptions switched;
  switched.path_switching = true;
  // Per source: plain, loop_reduction = 0.01, path_switching.
  const std::vector<std::string> expected = {
      "122e9df028234895 ca1823d970d77775 941557f0953917a6",  // MACSio
      "91b3b6b5d7d66feb 9fb85dde77802002 94ba5cc760ddca8b",  // VPIC-IO
      "9f7338813db03e63 2a3917d5383c4d9b d8e71fba36b758a7",  // FLASH-IO
      "f907cb0e39cf5d9c 717702fb73ed1c90 9af18576cb3386c9",  // HACC-IO
      "a6e29ea80f7da45e 3b55e39334c8d646 12eec1650bf7abd8",  // BD-CATS
  };
  for (std::size_t s = 0; s < sources.size(); ++s) {
    std::string got;
    for (const discovery::DiscoveryOptions* options :
         {&plain, &reduced, &switched}) {
      BitHash hash;
      hash.add(discovery::discover_io(sources[s], *options).kernel_source);
      got += (got.empty() ? "" : " ") + hash.hex();
    }
    EXPECT_EQ(got, expected[s]) << "source " << s;
  }
}

TEST(DiscoveryGolden, SlicerAcceptsEverySeedSource) {
  // The dataflow slicer is discovery's only marking engine; none of the
  // seed applications may make it throw.
  int throws = 0;
  for (const std::string& source :
       {wl::sources::macsio_vpic(), wl::sources::vpic(), wl::sources::flash(),
        wl::sources::hacc(), wl::sources::bdcats()}) {
    const minic::Program program =
        minic::parse(minic::print(minic::parse(source)));
    try {
      analysis::slice_io(program, discovery::DiscoveryOptions{}.io_prefixes);
    } catch (const Error&) {
      ++throws;
    }
  }
  EXPECT_EQ(throws, 0);
}

TEST(DiscoveryGolden, SourceWithoutMainThrowsError) {
  EXPECT_THROW(discovery::discover_io(R"(
    int helper()
    {
      int f = h5fcreate("/scratch/x.h5");
      h5fclose(f);
      return 0;
    }
  )"),
               Error);
}

}  // namespace
}  // namespace tunio

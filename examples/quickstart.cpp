// Quickstart: tune an HPC application's I/O stack with TunIO.
//
// This walks the whole Table-I API in one sitting:
//   1. run the application untuned on the simulated testbed;
//   2. reduce its source to an I/O kernel (discover_io);
//   3. train TunIO's RL components offline;
//   4. tune with impact-first subsets (subset_picker) and RL early
//      stopping (stop) wired into the genetic pipeline;
//   5. export the winning configuration as an H5Tuner-style XML file.
//
// Build & run:  ./quickstart
#include <cstdio>

#include "config/xml.hpp"
#include "core/pipeline.hpp"
#include "core/roti.hpp"
#include "core/tunio.hpp"
#include "tuner/objective.hpp"
#include "workloads/workload.hpp"

using namespace tunio;

int main() {
  // The configuration space: 12 parameters across HDF5, MPI-IO, Lustre.
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  std::printf("Tuning space: %zu parameters, %.3g permutations\n\n",
              space.num_parameters(), space.permutations());

  // The application: HACC's checkpoint kernel on a 4-node/128-rank
  // simulated testbed (modest particle counts: this is a demo).
  wl::HaccParams params;
  params.particles_per_rank = 1 << 20;
  tuner::TestbedOptions testbed;
  testbed.num_ranks = 128;
  auto objective = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(params)), testbed);

  // 1. Untuned baseline.
  const auto baseline = objective->evaluate(space.default_configuration());
  std::printf("untuned perf: %.0f MB/s\n", baseline.perf_mbps);

  // 2-3. TunIO with offline training (sweeps VPIC/FLASH/HACC kernels,
  // trains the early stopper on synthetic tuning curves).
  core::TunIO tunio(space);
  {
    tuner::TestbedOptions sweep_tb = testbed;
    sweep_tb.runs_per_eval = 1;
    wl::RunOptions kernel_opts;
    kernel_opts.compute_scale = 0.0;
    auto vpic = tuner::make_workload_objective(
        std::shared_ptr<const wl::Workload>(wl::make_vpic()), sweep_tb,
        kernel_opts);
    auto flash = tuner::make_workload_objective(
        std::shared_ptr<const wl::Workload>(wl::make_flash()), sweep_tb,
        kernel_opts);
    auto hacc = tuner::make_workload_objective(
        std::shared_ptr<const wl::Workload>(wl::make_hacc()), sweep_tb,
        kernel_opts);
    std::printf("training TunIO offline (parameter sweeps + PCA + synthetic "
                "tuning curves)...\n");
    tunio.train_offline({vpic.get(), flash.get(), hacc.get()});
  }
  std::printf("impact-ranked parameters:");
  for (std::size_t p : tunio.smart_config().ranking()) {
    std::printf(" %s", space.parameter(p).name.c_str());
  }
  std::printf("\n\n");

  // 4. Tune: genetic pipeline + Smart Configuration Generation + RL stop.
  tuner::GaOptions ga;
  ga.max_generations = 30;
  const tuner::TuningResult result =
      core::run_pipeline(space, *objective, &tunio,
                         {"TunIO", /*impact_first=*/true,
                          core::StopPolicy::kTunio},
                         ga)
          .result;

  std::printf("tuning finished after %u generations (%.1f simulated "
              "minutes)%s\n",
              result.generations_run, result.total_seconds / 60.0,
              result.early_stopped ? " — stopped early by the RL agent" : "");
  std::printf("tuned perf: %.0f MB/s (%.1fx the untuned stack)\n",
              result.best_perf, result.best_perf / baseline.perf_mbps);
  std::printf("return on tuning investment: %.1f MB/s per minute\n\n",
              core::final_roti(result));

  // 5. The winning configuration, H5Tuner-style.
  std::printf("best configuration (H5Tuner XML):\n%s\n",
              cfg::to_xml(*result.best_config).c_str());
  return 0;
}

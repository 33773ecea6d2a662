#include "common.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace tunio::bench {

namespace {

struct RecordedValue {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool gate = false;
  Direction direction = Direction::kHigherIsBetter;
};

struct RecordedSummary {
  std::string metric;
  std::string measured;
  std::string paper;
};

struct Report {
  std::string bench;
  std::string tuner_backend = "ga";
  bool json = false;
  std::string path;
  std::chrono::steady_clock::time_point started;
  std::vector<RecordedValue> values;
  std::vector<RecordedSummary> summaries;
};

#ifndef TUNIO_GIT_SHA
#define TUNIO_GIT_SHA "unknown"
#endif

Report g_report;

}  // namespace

void init(int argc, char** argv, const std::string& name) {
  g_report = {};
  g_report.bench = name;
  g_report.path = "BENCH_" + name + ".json";
  g_report.started = std::chrono::steady_clock::now();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      g_report.json = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      g_report.json = true;
      g_report.path = arg + 7;
    }
  }
}

void set_tuner_backend(const std::string& backend) {
  g_report.tuner_backend = backend;
}

void value(const std::string& name, double v, const std::string& unit,
           bool gate, Direction direction) {
  g_report.values.push_back({name, v, unit, gate, direction});
}

int finish(int rc) {
  if (!g_report.json) return rc;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_report.started)
          .count();

  obs::Json values = obs::Json::array();
  for (const RecordedValue& v : g_report.values) {
    obs::Json row = obs::Json::object();
    row.set("name", obs::Json::string(v.name));
    row.set("value", obs::Json::number(v.value));
    row.set("unit", obs::Json::string(v.unit));
    row.set("gate", obs::Json::boolean(v.gate));
    row.set("direction",
            obs::Json::string(v.direction == Direction::kHigherIsBetter
                                  ? "higher_is_better"
                                  : "lower_is_better"));
    values.push_back(std::move(row));
  }

  obs::Json summaries = obs::Json::array();
  for (const RecordedSummary& s : g_report.summaries) {
    obs::Json row = obs::Json::object();
    row.set("metric", obs::Json::string(s.metric));
    row.set("measured", obs::Json::string(s.measured));
    row.set("paper", obs::Json::string(s.paper));
    summaries.push_back(std::move(row));
  }

  obs::Json meta = obs::Json::object();
  meta.set("git_sha", obs::Json::string(TUNIO_GIT_SHA));
  meta.set("tuner_backend", obs::Json::string(g_report.tuner_backend));

  obs::Json doc = obs::Json::object();
  doc.set("schema", obs::Json::string("tunio.bench.v1"));
  doc.set("bench", obs::Json::string(g_report.bench));
  doc.set("meta", std::move(meta));
  doc.set("exit_code", obs::Json::number(rc));
  doc.set("wall_seconds", obs::Json::number(wall_seconds));
  doc.set("values", std::move(values));
  doc.set("summaries", std::move(summaries));
  doc.set("metrics", obs::MetricsRegistry::global().snapshot().to_json());

  std::FILE* out = std::fopen(g_report.path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", g_report.path.c_str());
    return rc == 0 ? 1 : rc;
  }
  const std::string text = doc.dump(2);
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("\n[json] wrote %s\n", g_report.path.c_str());
  return rc;
}

void banner(const std::string& figure, const std::string& title,
            const std::string& paper_says) {
  std::printf("\n");
  std::printf("=================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  std::printf("=================================================================\n");
  std::printf("Paper reports: %s\n\n", paper_says.c_str());
}

void summary(const std::string& metric, const std::string& measured,
             const std::string& paper) {
  std::printf("  %-46s measured: %-18s paper: %s\n", metric.c_str(),
              measured.c_str(), paper.c_str());
  g_report.summaries.push_back({metric, measured, paper});
}

void section(const std::string& heading) {
  std::printf("\n--- %s ---\n", heading.c_str());
}

tuner::TestbedOptions paper_testbed(std::uint64_t seed) {
  tuner::TestbedOptions tb;
  tb.num_ranks = 128;  // 4 Haswell nodes x 32 ranks
  tb.runs_per_eval = 3;  // "each application run is performed 3 times"
  tb.measurement_noise = 0.02;
  tb.seed = seed;
  return tb;
}

wl::HaccParams paper_hacc() {
  wl::HaccParams p;
  // ~1.2 GiB per rank (152 GiB checkpoint at 128 ranks): one untuned run
  // costs ~1 simulated minute, so a 50-generation budget lands near the
  // paper's ~800 tuning minutes.
  p.particles_per_rank = 1ull << 25;
  p.compute_seconds_per_step = 30.0;
  return p;
}

wl::FlashParams paper_flash() {
  wl::FlashParams p;
  p.blocks_per_rank = 16;
  p.checkpoint_datasets = 12;
  p.block_bytes = 384 * KiB;
  p.compute_seconds_per_step = 20.0;
  return p;
}

wl::VpicParams paper_vpic() {
  wl::VpicParams p;
  p.particles_per_rank = 1ull << 23;
  p.timesteps = 2;
  p.compute_seconds_per_step = 25.0;
  return p;
}

wl::MacsioParams paper_macsio() {
  wl::MacsioParams p;
  p.num_dumps = 10;
  p.bytes_per_rank_per_dump = 64 * MiB;
  p.part_bytes = 8 * MiB;
  p.compute_seconds_per_dump = 2.0;  // VPIC Dipole compute:I/O baseline
  p.log_writes_per_dump = 256;
  return p;
}

wl::BdcatsParams paper_bdcats() {
  wl::BdcatsParams p;
  // Read-heavy: each clustering round re-streams ~100 GiB of coordinates.
  p.particles_per_rank = 1ull << 26;
  p.variables = 3;
  p.clustering_rounds = 4;
  p.compute_seconds_per_round = 45.0;
  p.result_bytes_per_rank = 1 * MiB;
  return p;
}

wl::RunOptions kernel_options() {
  wl::RunOptions options;
  options.compute_scale = 0.0;
  options.include_log_writes = false;
  return options;
}

tuner::GaOptions paper_ga(std::uint64_t seed) {
  tuner::GaOptions ga;
  ga.population = 16;
  ga.max_generations = 50;
  ga.seed = seed;
  return ga;
}

std::unique_ptr<tuner::Objective> hacc_objective(bool as_kernel,
                                                 std::uint64_t seed) {
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(paper_hacc())),
      paper_testbed(seed), as_kernel ? kernel_options() : wl::RunOptions{});
}

std::unique_ptr<tuner::Objective> flash_objective(bool as_kernel,
                                                  std::uint64_t seed) {
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_flash(paper_flash())),
      paper_testbed(seed), as_kernel ? kernel_options() : wl::RunOptions{});
}

std::unique_ptr<tuner::Objective> vpic_objective(bool as_kernel,
                                                 std::uint64_t seed) {
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_vpic(paper_vpic())),
      paper_testbed(seed), as_kernel ? kernel_options() : wl::RunOptions{});
}

std::unique_ptr<tuner::Objective> bdcats_objective(bool as_kernel,
                                                   std::uint64_t seed) {
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_bdcats(paper_bdcats())),
      paper_testbed(seed), as_kernel ? kernel_options() : wl::RunOptions{});
}

std::unique_ptr<core::TunIO> trained_tunio(const cfg::ConfigSpace& space,
                                           double* early_stop_train_s) {
  auto tunio = std::make_unique<core::TunIO>(space);
  std::printf("[offline] sweeping representative kernels (VPIC, FLASH, "
              "HACC) + PCA; training early-stop agent on synthetic log "
              "curves...\n");
  // Sweeps use 1 run per eval: the offline phase is exploratory.
  tuner::TestbedOptions tb = paper_testbed(0xAB);
  tb.runs_per_eval = 1;
  auto vpic = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_vpic(paper_vpic())), tb,
      kernel_options());
  auto flash = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_flash(paper_flash())), tb,
      kernel_options());
  auto hacc = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(paper_hacc())), tb,
      kernel_options());
  tunio->smart_config().train_offline({vpic.get(), flash.get(), hacc.get()});
  const auto early_start = std::chrono::steady_clock::now();
  tunio->early_stopping().train_offline();
  if (early_stop_train_s != nullptr) {
    *early_stop_train_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - early_start)
                              .count();
  }

  std::printf("[offline] impact ranking:");
  const auto& impact = tunio->smart_config().impact_scores();
  for (std::size_t p : tunio->smart_config().ranking()) {
    std::printf(" %s(%.2f)", space.parameter(p).name.c_str(), impact[p]);
  }
  std::printf("\n\n");
  return tunio;
}

void print_curve(const std::string& label, const tuner::TuningResult& result,
                 unsigned stride) {
  std::printf("%s (initial %s):\n", label.c_str(),
              fmt_bw(result.initial_perf).c_str());
  std::printf("  %-10s %-14s %-12s %s\n", "iteration", "best-bw", "minutes",
              "subset");
  for (const tuner::GenerationStats& gen : result.history) {
    if (gen.generation % stride != 0 &&
        gen.generation + 1 != result.history.size()) {
      continue;
    }
    const std::string subset =
        gen.subset.empty() ? "all" : std::to_string(gen.subset.size());
    std::printf("  %-10u %-14s %-12s %s\n", gen.generation,
                fmt_bw(gen.best_perf).c_str(),
                fmt_min(gen.cumulative_seconds / 60.0).c_str(),
                subset.c_str());
  }
  std::printf("  -> best %s after %u iterations, %s of tuning%s\n",
              fmt_bw(result.best_perf).c_str(), result.generations_run,
              fmt_min(result.total_seconds / 60.0).c_str(),
              result.early_stopped ? " (early-stopped)" : "");
}

void print_roti_curve(const std::string& label,
                      const tuner::TuningResult& result, unsigned stride) {
  const auto curve = core::roti_curve(result);
  std::printf("%s RoTI curve:\n", label.c_str());
  std::printf("  %-10s %-12s %s\n", "iteration", "minutes", "RoTI (MB/s/min)");
  for (const core::RotiPoint& point : curve) {
    if (point.generation % stride != 0 &&
        point.generation + 1 != curve.size()) {
      continue;
    }
    std::printf("  %-10u %-12s %.2f\n", point.generation,
                fmt_min(point.minutes).c_str(), point.roti);
  }
}

std::string fmt_bw(double mbps) {
  char buf[64];
  if (mbps >= 1000.0) {
    std::snprintf(buf, sizeof buf, "%.2f GB/s", mbps / 1000.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f MB/s", mbps);
  }
  return buf;
}

std::string fmt_min(double minutes) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f min", minutes);
  return buf;
}

}  // namespace tunio::bench

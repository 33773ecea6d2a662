// TunIO job benchmark: command-line entry point.
//
//   jobbench --workload <paper_checkpoint|paper_read|service_churn>
//            --seed <n> --seconds <s> --trace <0|1> [--spans <file.csv>]
//
// Prints a human-readable summary on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (and the spans go to --spans when given).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness/runner.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "jobbench: %s\nusage: jobbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  jobbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto workload = jobbench::parse_workload(value);
        if (!workload) return usage(("unknown workload " + value).c_str());
        options.workload = *workload;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  jobbench::Report report;
  try {
    report = jobbench::run_benchmark(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobbench: run failed: %s\n", e.what());
    return 1;
  }
  for (const jobbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "jobbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "jobbench: check failed: %s\n", p.c_str());
  }
  std::printf("%s\n", jobbench::to_json_line(report).c_str());
  return 0;
}

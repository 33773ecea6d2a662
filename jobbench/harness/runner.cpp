#include "harness/runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "analysis/lint.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/tunio.hpp"
#include "discovery/discovery.hpp"
#include "harness/check.hpp"
#include "harness/probe.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/timed_objective.hpp"
#include "obs/metrics.hpp"
#include "replay/invariance.hpp"
#include "service/eval_engine.hpp"
#include "service/result_cache.hpp"
#include "service/tuning_server.hpp"

namespace jobbench {

namespace {

namespace cfg = tunio::cfg;
namespace core = tunio::core;
namespace service = tunio::service;
namespace tuner = tunio::tuner;

/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetups = 3;
/// Jobs a measured window must complete at least: enough for p90.
const std::size_t kMinJobs = min_samples_for(0.9);
/// Jobs the outcome metrics cover (whole strata of the generators, about
/// what a 20-second window completes).
constexpr std::size_t kPaperOutcomeJobs = 200;
constexpr std::size_t kChurnOutcomeJobs = 2000;
/// service_churn set-up: submissions generated and checked against the
/// replay gate.
constexpr std::size_t kGeneratorCheckJobs = 1000;
/// Traced run: jobs probed for stack/interpreter time and per-eval counts
/// (also the traced half-window's minimum job count).
constexpr std::size_t kProbeJobs = 6;
/// Evaluation latency tail reported by the traced run (p99).
constexpr double kEvalTail = 0.99;
constexpr unsigned kProbeReps = 3;
/// Jobs re-run on a one-worker engine to check worker-count independence.
constexpr std::size_t kWorkerCheckJobs = 2;

// paper_* jobs: one outstanding job on the client thread, the impact-first
// GA with RL early stop, capped at this many generations.
constexpr unsigned kPaperGenerations = 16;
// service_churn: job slots, outstanding submissions, and the small
// per-job search budget.
constexpr unsigned kServerSlots = 2;
constexpr std::size_t kOutstanding = 3;
constexpr unsigned kChurnBatch = 8;
constexpr unsigned kChurnIterations = 6;
/// Result-cache entries: about three times what the last kRepeatWindow
/// submissions evaluate, so a repeat always hits, yet small enough that
/// the cache fills, and memory levels off, within every run.
constexpr std::size_t kCacheCapacity = 1u << 14;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

unsigned engine_workers(unsigned job_threads) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw > job_threads ? hw - job_threads : 1;
}

std::uint64_t fingerprint(Workload workload, std::size_t origin) {
  return tunio::derive_stream(0xF1A9'0000u + static_cast<unsigned>(workload),
                              origin);
}

tunio::wl::RunOptions kernel_options() {
  tunio::wl::RunOptions options;
  options.compute_scale = 0.0;
  options.include_log_writes = false;
  return options;
}

tuner::TestbedOptions paper_testbed(const PaperJob& job,
                                    tuner::ReplayMode mode) {
  tuner::TestbedOptions tb;
  tb.num_ranks = job.ranks;
  tb.runs_per_eval = 3;
  tb.seed = job.testbed_seed;
  tb.replay = mode;
  return tb;
}

tuner::TestbedOptions churn_testbed(const ChurnJob& job,
                                    tuner::ReplayMode mode) {
  tuner::TestbedOptions tb;
  tb.num_ranks = job.ranks;
  tb.seed = job.testbed_seed;
  tb.replay = mode;
  return tb;
}

/// A shortened offline schedule for the early stopper (up to 30 epochs
/// instead of 120): three set-ups per run must fit the run budget. On
/// these jobs the agent it trains stops at comparable generations.
core::TunioOptions tunio_options() {
  core::TunioOptions options;
  options.early_stopping.max_epochs = 30;
  options.early_stopping.min_epochs = 10;
  return options;
}

struct Counters {
  std::uint64_t replayed = 0;
  std::uint64_t interpreted = 0;
  std::uint64_t fitness_hits = 0;
  std::uint64_t rl_decisions = 0;

  static Counters read() {
    tunio::obs::MetricsRegistry& r = tunio::obs::MetricsRegistry::global();
    return {r.counter("tuner.eval.replayed").value(),
            r.counter("tuner.eval.interpreted").value(),
            r.counter("tuner.fitness_cache_hits").value(),
            r.counter("rl.early_stop.decisions").value()};
  }
  Counters operator-(const Counters& o) const {
    return {replayed - o.replayed, interpreted - o.interpreted,
            fitness_hits - o.fitness_hits, rl_decisions - o.rl_decisions};
  }
};

struct JobRecord {
  std::size_t index = 0;
  bool ok = false;
  std::string error;
  tuner::TuningResult result;
  std::vector<std::uint64_t> fresh_after_batch;
  double wall_s = 0.0;
  double done_s = 0.0;  ///< completion time, from the window's start
  bool replay_eligible = false;

  /// Takes the job's evaluation accounting from its objective stack.
  void take_accounting(const BatchTimer& timer) {
    fresh_after_batch = timer.fresh_after_batch();
    replay_eligible = timer.replay_gate().eligible;
  }
  std::uint64_t fresh() const {
    return fresh_after_batch.empty() ? 0 : fresh_after_batch.back();
  }
};

struct Phase {
  std::vector<JobRecord> jobs;  ///< ordered by index
  double window_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time over the window
  Counters counters;
  service::ResultCache::Stats cache;
  unsigned workers = 0;

  struct Rates {
    double jobs_per_min = 0.0;
    double evals_per_s = 0.0;
  };
  /// Throughput as the median over blocks of `block` consecutive job
  /// completions, so a stall of the host during one block does not move
  /// it; the whole window when it holds less than one block.
  Rates rates(std::size_t block) const {
    std::vector<const JobRecord*> order;
    for (const JobRecord& job : jobs) order.push_back(&job);
    std::sort(order.begin(), order.end(),
              [](const JobRecord* a, const JobRecord* b) {
                return a->done_s < b->done_s;
              });
    std::vector<double> per_min, per_s;
    for (std::size_t first = 0; first + block <= order.size(); first += block) {
      const double begin = first == 0 ? 0.0 : order[first - 1]->done_s;
      const double span = order[first + block - 1]->done_s - begin;
      double evals = 0.0;
      for (std::size_t i = first; i < first + block; ++i) {
        evals += static_cast<double>(order[i]->fresh());
      }
      per_min.push_back(static_cast<double>(block) / span * 60.0);
      per_s.push_back(evals / span);
    }
    if (per_min.empty()) {
      double evals = 0.0;
      for (const JobRecord& job : jobs) evals += static_cast<double>(job.fresh());
      return {static_cast<double>(jobs.size()) / window_s * 60.0,
              evals / window_s};
    }
    return {median(per_min), median(per_s)};
  }
};

/// When a measured window may end: after `seconds`, once at least
/// `jobs` jobs and `evals` fresh evaluations have completed.
struct WindowEnd {
  double seconds = 0.0;
  std::size_t jobs = 0;
  std::uint64_t evals = 0;

  bool reached(double elapsed_s, std::size_t done_jobs,
               std::uint64_t done_evals) const {
    return elapsed_s >= seconds && done_jobs >= jobs && done_evals >= evals;
  }
};

/// Fresh evaluations until the job's best first reached 95% of its final
/// best (one history entry and one batch per search iteration).
double evals_to_95(const JobRecord& job) {
  const auto& history = job.result.history;
  TUNIO_CHECK_MSG(history.size() == job.fresh_after_batch.size(),
                  "job " + std::to_string(job.index) +
                      ": iterations and batches disagree");
  const double target = 0.95 * job.result.best_perf;
  for (std::size_t g = 0; g < history.size(); ++g) {
    if (history[g].best_perf >= target) {
      return static_cast<double>(job.fresh_after_batch[g]);
    }
  }
  return static_cast<double>(job.fresh_after_batch.back());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// CPU seconds (user + system) of every thread of the process so far.
/// Unlike wall time it excludes time the host took the CPUs away.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

class Bench {
 public:
  explicit Bench(const RunOptions& options)
      : options_(options), space_(cfg::ConfigSpace::tunio12()) {}

  Report run();

 private:
  bool paper() const { return options_.workload != Workload::kServiceChurn; }
  /// Jobs the outcome metrics cover: a fixed prefix of the job list, so
  /// they do not depend on how many jobs the window fitted.
  std::size_t outcome_jobs() const {
    return paper() ? kPaperOutcomeJobs : kChurnOutcomeJobs;
  }
  /// Completions per throughput block: one whole stratum of the paper
  /// generators (every kernel and size class once), 100 service jobs.
  std::size_t throughput_block() const { return paper() ? 20 : 100; }

  void setup();
  void train_once();
  void validate_generator_once();

  Phase run_phase(const WindowEnd& end) {
    return paper() ? run_paper_phase(end, 0) : run_churn_phase(end, 0);
  }
  /// `workers` = 0: the benchmark's engine size and job slots; otherwise a
  /// `workers`-thread engine running one job at a time.
  Phase run_paper_phase(const WindowEnd& end, unsigned workers);
  Phase run_churn_phase(const WindowEnd& end, unsigned workers);
  JobRecord run_paper_job(const PaperJob& job, service::EvalEngine& engine,
                          service::ResultCache& cache);

  struct Prepared {
    std::shared_ptr<BatchTimer> timer;
    service::JobSpec spec;
    std::int64_t start_ns = 0;
    std::uint64_t span = 0;
  };
  Prepared prepare_churn_job(const ChurnJob& job, service::EvalEngine& engine);
  tunio::discovery::KernelResult discover(const ChurnJob& job) const;

  void check_outputs(const Phase& phase);
  void check_worker_independence(const Phase& phase);
  void probe(const Phase& phase, ProbeTotals& totals);

  void end_to_end_metrics(const Phase& phase);
  void per_layer_metrics(const Phase& untraced, const Phase& traced,
                         const std::vector<Span>& spans,
                         const ProbeTotals& probe);
  void write_spans(const std::vector<Span>& spans) const;

  void metric(const char* name, double value, const char* unit) {
    report_.metrics.push_back({name, value, unit});
  }
  void problem(const std::string& what) {
    report_.correct = false;
    report_.problems.push_back(what);
  }

  RunOptions options_;
  const cfg::ConfigSpace space_;
  Report report_;

  std::unique_ptr<core::TunIO> trained_;  ///< paper_*: agents after set-up
  std::vector<double> setup_s_;
  std::vector<double> train_smart_s_;
  std::vector<double> train_early_s_;
};

// --- set-up ---------------------------------------------------------------

void Bench::setup() {
  for (unsigned i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    if (paper()) {
      train_once();
    } else {
      validate_generator_once();
    }
    setup_s_.push_back(seconds_since(start));
  }
}

/// Offline training of TunIO's agents on the VPIC/FLASH/HACC sweep kernels
/// (the paper's representative kernels) plus the early stopper.
void Bench::train_once() {
  auto tunio = std::make_unique<core::TunIO>(space_, tunio_options());
  tuner::TestbedOptions tb;
  tb.num_ranks = 128;
  tb.runs_per_eval = 1;
  auto vpic = tuner::make_workload_objective(tunio::wl::make_vpic(), tb,
                                             kernel_options());
  auto flash = tuner::make_workload_objective(tunio::wl::make_flash(), tb,
                                              kernel_options());
  auto hacc = tuner::make_workload_objective(tunio::wl::make_hacc(), tb,
                                             kernel_options());
  const std::int64_t smart_start = now_ns();
  tunio->smart_config().train_offline({vpic.get(), flash.get(), hacc.get()});
  train_smart_s_.push_back(seconds_since(smart_start));
  const std::int64_t early_start = now_ns();
  tunio->early_stopping().train_offline();
  train_early_s_.push_back(seconds_since(early_start));
  trained_ = std::move(tunio);
}

/// Generates the first submissions and confirms, with the replay gate's
/// own analysis of each discovered kernel, that exactly the programs built
/// settings-dependent are rejected.
void Bench::validate_generator_once() {
  std::size_t dependent = 0;
  std::size_t originals = 0;
  for (std::size_t i = 0; i < kGeneratorCheckJobs; ++i) {
    const ChurnJob job = churn_job(options_.seed, i);
    if (job.repeat_of) continue;
    ++originals;
    const tunio::replay::InvarianceReport report =
        tunio::replay::analyze_invariance(discover(job).kernel);
    if (report.dependent != job.settings_dependent) {
      problem("job " + std::to_string(i) + " (" + job.template_name +
              "): replay gate says '" + report.reason + "'");
    }
    dependent += report.dependent ? 1 : 0;
  }
  if (dependent == 0 || dependent == originals) {
    problem("generator produced no mix of dependent and invariant programs");
  }
}

tunio::discovery::KernelResult Bench::discover(const ChurnJob& job) const {
  return tunio::discovery::discover_io(job.source,
                                       tunio::discovery::DiscoveryOptions{});
}

// --- paper_* jobs -----------------------------------------------------------

JobRecord Bench::run_paper_job(const PaperJob& job,
                               service::EvalEngine& engine,
                               service::ResultCache& cache) {
  const std::uint64_t job_id = job.index + 1;
  Span job_span{"job", now_ns(), 0, enabled() ? new_span_id() : 0, 0, job_id};

  std::shared_ptr<tuner::Objective> raw;
  {
    ScopedSpan gate("replay.gate", job_id, job_span.id);
    raw = tuner::make_workload_objective(
        job.workload, paper_testbed(job, tuner::ReplayMode::kAuto),
        kernel_options());
  }
  BatchTimer timer(raw, engine, job_id, job_span.id);
  // Every job starts from the offline-trained agents, so jobs are
  // independent samples rather than one long online-learning trajectory.
  core::TunIO tunio(*trained_);

  tuner::GaOptions ga;
  ga.population = 16;
  ga.max_generations = kPaperGenerations;
  ga.seed = job.ga_seed;
  const core::PipelineVariant variant("TunIO", /*impact_first=*/true,
                                      core::StopPolicy::kTunio);
  JobRecord rec;
  rec.index = job.index;
  try {
    rec.result =
        core::run_pipeline(space_, timer, &tunio, variant, ga,
                           {&engine, &cache,
                            fingerprint(options_.workload, job.index)})
            .result;
    rec.ok = true;
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  job_span.end_ns = now_ns();
  record(job_span);
  rec.wall_s = static_cast<double>(job_span.duration_ns()) / 1e9;
  rec.take_accounting(timer);
  return rec;
}

Phase Bench::run_paper_phase(const WindowEnd& end, unsigned workers) {
  Phase phase;
  phase.workers = workers > 0 ? workers : engine_workers(1);
  service::EvalEngine engine({phase.workers});
  service::ResultCache cache({kCacheCapacity, 8});

  const Counters before = Counters::read();
  const double cpu_before = process_cpu_s();
  const std::int64_t start = now_ns();
  std::uint64_t evals = 0;
  for (std::size_t i = 0;
       !end.reached(seconds_since(start), phase.jobs.size(), evals); ++i) {
    phase.jobs.push_back(run_paper_job(paper_job(options_.workload,
                                                 options_.seed, i),
                                       engine, cache));
    phase.jobs.back().done_s = seconds_since(start);
    evals += phase.jobs.back().fresh();
  }
  phase.window_s = seconds_since(start);
  phase.cpu_s = process_cpu_s() - cpu_before;
  phase.counters = Counters::read() - before;
  phase.cache = cache.stats();
  return phase;
}

// --- service_churn jobs ---------------------------------------------------

Bench::Prepared Bench::prepare_churn_job(const ChurnJob& job,
                                         service::EvalEngine& engine) {
  const std::uint64_t job_id = job.index + 1;
  Prepared out;
  out.start_ns = now_ns();
  out.span = enabled() ? new_span_id() : 0;

  tunio::analysis::LintReport lint;
  {
    ScopedSpan span("analysis.lint", job_id, out.span);
    lint = tunio::analysis::lint_source(job.source);
  }
  tunio::discovery::KernelResult kernel;
  {
    ScopedSpan span("discovery.discover_io", job_id, out.span);
    kernel = discover(job);
  }
  std::shared_ptr<tuner::Objective> raw;
  {
    ScopedSpan span("replay.gate", job_id, out.span);
    raw = tuner::make_kernel_objective(
        kernel.kernel, churn_testbed(job, tuner::ReplayMode::kAuto));
  }
  out.timer = std::make_shared<BatchTimer>(raw, engine, job_id, out.span);

  out.spec.name = "churn-" + std::to_string(job.index);
  out.spec.objective = out.timer;
  out.spec.fingerprint = fingerprint(options_.workload, job.origin());
  out.spec.backend = job.backend;
  out.spec.ga.population = kChurnBatch;
  out.spec.ga.max_generations = kChurnIterations;
  out.spec.ga.seed = job.tuner_seed;
  out.spec.hints = lint.tuning_hints();
  return out;
}

Phase Bench::run_churn_phase(const WindowEnd& end, unsigned workers) {
  Phase phase;
  phase.workers = workers > 0 ? workers : engine_workers(kServerSlots);
  const unsigned slots = workers > 0 ? 1 : kServerSlots;
  service::ServerOptions server_options;
  server_options.max_concurrent_jobs = slots;
  server_options.engine.workers = phase.workers;
  server_options.cache.capacity = kCacheCapacity;

  struct Completion {
    std::size_t index = 0;
    bool ok = false;
    std::string error;
    tuner::TuningResult result;
    std::int64_t end_ns = 0;
  };
  struct InFlight {
    Prepared prepared;
    std::int64_t submit_ns = 0;
    std::thread waiter;
  };

  const Counters before = Counters::read();
  const double cpu_before = process_cpu_s();
  const std::int64_t start = now_ns();
  {
    service::TuningServer server(space_, server_options);
    std::mutex mutex;
    std::condition_variable done_cv;
    std::deque<Completion> done;  // guarded by mutex
    std::map<std::size_t, InFlight> in_flight;
    std::vector<bool> finished;
    std::uint64_t evals = 0;  // fresh evaluations of completed jobs

    const auto complete_one = [&] {
      Completion c;
      {
        std::unique_lock<std::mutex> lock(mutex);
        done_cv.wait(lock, [&] { return !done.empty(); });
        c = std::move(done.front());
        done.pop_front();
      }
      InFlight& f = in_flight.at(c.index);
      f.waiter.join();
      const std::uint64_t job_id = c.index + 1;
      record(Span{"job", f.prepared.start_ns, c.end_ns, f.prepared.span, 0,
                  job_id});
      const std::int64_t first_batch = f.prepared.timer->first_batch_ns();
      if (first_batch > 0) {
        record(Span{"server.queue", f.submit_ns, first_batch,
                    enabled() ? new_span_id() : 0, f.prepared.span, job_id});
      }
      JobRecord rec;
      rec.index = c.index;
      rec.ok = c.ok;
      rec.error = std::move(c.error);
      rec.result = std::move(c.result);
      rec.wall_s = static_cast<double>(c.end_ns - f.prepared.start_ns) / 1e9;
      rec.done_s = static_cast<double>(c.end_ns - start) / 1e9;
      rec.take_accounting(*f.prepared.timer);
      evals += rec.fresh();
      phase.jobs.push_back(std::move(rec));
      finished[c.index] = true;
      in_flight.erase(c.index);
    };

    const auto submit = [&](std::size_t i) {
      const ChurnJob job = churn_job(options_.seed, i);
      finished.push_back(false);
      // A repeat is submitted only once its original has completed, so
      // it hits the cache deterministically.
      if (job.repeat_of) {
        while (!finished[*job.repeat_of]) complete_one();
      }
      Prepared prepared = prepare_churn_job(job, server.engine());
      const std::int64_t submit_ns = now_ns();
      const service::JobId id = server.submit(prepared.spec);
      InFlight& f = in_flight[i];
      f.prepared = std::move(prepared);
      f.submit_ns = submit_ns;
      f.waiter = std::thread([&, id, i] {
        Completion c;
        c.index = i;
        try {
          c.result = server.wait(id);
          const service::JobProgress progress = server.progress(id);
          c.ok = progress.state == service::JobState::kDone;
          if (!c.ok) c.error = service::job_state_name(progress.state);
        } catch (const std::exception& e) {
          c.error = e.what();
        }
        c.end_ns = now_ns();
        std::lock_guard<std::mutex> lock(mutex);
        done.push_back(std::move(c));
        done_cv.notify_one();
      });
    };

    try {
      for (std::size_t i = 0;
           !end.reached(seconds_since(start), phase.jobs.size(), evals); ++i) {
        while (in_flight.size() >= kOutstanding) complete_one();
        submit(i);
      }
    } catch (...) {
      // Join the waiters before the server and the queue go away.
      while (!in_flight.empty()) complete_one();
      throw;
    }
    while (!in_flight.empty()) complete_one();
    phase.window_s = seconds_since(start);
    phase.cpu_s = process_cpu_s() - cpu_before;
    phase.cache = server.cache().stats();
  }
  phase.counters = Counters::read() - before;
  std::sort(phase.jobs.begin(), phase.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.index < b.index;
            });
  return phase;
}

// --- checks -------------------------------------------------------------

void Bench::check_outputs(const Phase& phase) {
  for (const JobRecord& job : phase.jobs) {
    report_.attempted += 1;
    if (!job.ok) {
      report_.failed += 1;
      problem("job " + std::to_string(job.index) + " failed: " + job.error);
      continue;
    }
    std::unique_ptr<tuner::Objective> fresh;
    if (paper()) {
      const PaperJob spec = paper_job(options_.workload, options_.seed,
                                      job.index);
      fresh = tuner::make_workload_objective(
          spec.workload, paper_testbed(spec, tuner::ReplayMode::kOff),
          kernel_options());
    } else {
      const ChurnJob spec = churn_job(options_.seed, job.index);
      fresh = tuner::make_kernel_objective(
          discover(spec).kernel, churn_testbed(spec, tuner::ReplayMode::kOff));
    }
    if (!best_reproduces(job.result, *fresh)) {
      report_.failed += 1;
      problem("job " + std::to_string(job.index) +
              ": best configuration does not reproduce its perf");
    }
  }
}

void Bench::check_worker_independence(const Phase& phase) {
  const std::size_t n = std::min(kWorkerCheckJobs, phase.jobs.size());
  const WindowEnd first_jobs{0.0, n, 0};
  const Phase serial = paper() ? run_paper_phase(first_jobs, 1)
                               : run_churn_phase(first_jobs, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const JobRecord& a = phase.jobs[i];
    const JobRecord& b = serial.jobs.at(i);
    if (!same_outcome(a.result, b.result) ||
        a.fresh_after_batch != b.fresh_after_batch) {
      problem("job " + std::to_string(i) + " differs between " +
              std::to_string(phase.workers) + " engine workers and 1");
    }
  }
}

// --- probe --------------------------------------------------------------

void Bench::probe(const Phase& phase, ProbeTotals& totals) {
  std::size_t probed = 0;
  for (const JobRecord& job : phase.jobs) {
    if (probed == kProbeJobs) break;
    if (!job.ok || !job.result.best_config) continue;
    ProbeTarget target;
    std::shared_ptr<const tunio::wl::Workload> workload;
    tunio::minic::Program program;
    if (paper()) {
      const PaperJob spec =
          paper_job(options_.workload, options_.seed, job.index);
      workload = spec.workload;
      target.workload = workload.get();
      target.run_options = kernel_options();
      target.ranks = spec.ranks;
    } else {
      const ChurnJob spec = churn_job(options_.seed, job.index);
      if (spec.repeat_of) continue;
      program = discover(spec).kernel;
      target.program = &program;
      target.ranks = spec.ranks;
    }
    ++probed;
    // The job's starting point, its result, and one seeded draw.
    tunio::Rng rng(tunio::derive_stream(options_.seed, job.index));
    std::vector<std::size_t> drawn(space_.num_parameters());
    for (std::size_t p = 0; p < drawn.size(); ++p) {
      drawn[p] = rng.index(space_.parameter(p).domain.size());
    }
    const cfg::Configuration configs[] = {space_.default_configuration(),
                                          *job.result.best_config,
                                          cfg::Configuration(&space_, drawn)};
    for (const cfg::Configuration& config : configs) {
      probe_config(target, cfg::resolve(config), kProbeReps, totals);
    }
  }
  if (!totals.identical) problem("probe: a replay diverged from its recording");
  if (totals.configs == 0) problem("probe: no job to probe");
}

// --- metrics --------------------------------------------------------------

void Bench::end_to_end_metrics(const Phase& phase) {
  std::vector<double> walls;
  for (const JobRecord& job : phase.jobs) walls.push_back(job.wall_s);
  const Phase::Rates rates = phase.rates(throughput_block());
  std::vector<double> speedups, budgets, to_95;
  for (std::size_t i = 0; i < outcome_jobs() && i < phase.jobs.size(); ++i) {
    const JobRecord& job = phase.jobs[i];
    if (!job.ok) continue;
    speedups.push_back(job.result.best_perf / job.result.initial_perf);
    budgets.push_back(job.result.total_seconds / 60.0);
    to_95.push_back(evals_to_95(job));
  }
  const std::optional<double> p90 = tail_percentile(walls, 0.9);
  if (!p90) problem("fewer jobs than p90 needs");

  metric("setup_s", median(setup_s_), "s");
  metric("jobs_per_min", rates.jobs_per_min, "1/min");
  metric("job_wall_p50_s", median(walls), "s");
  metric("job_wall_p90_s", p90.value_or(0.0), "s");
  metric("evals_per_s", rates.evals_per_s, "1/s");
  metric("cpu_ms_per_job",
         phase.cpu_s * 1e3 / static_cast<double>(phase.jobs.size()), "ms");
  metric("peak_rss_mb", peak_rss_mb(), "MiB");
  // The speedup is a median, not a geometric mean: per-job speedups are
  // bimodal (a FLASH or MACSio job finds the configuration that lifts it
  // by two orders of magnitude or it does not), so a geometric mean over
  // ~100 jobs swings with that luck from seed to seed. Evals-to-95% is a
  // mean: per-job counts come in multiples of the batch width, so their
  // median jumps between plateaus.
  metric("tuned_speedup_x", median(speedups), "x");
  metric("sim_budget_min", mean(budgets), "min");
  metric("evals_to_95_mean", mean(to_95), "count");
}

void Bench::per_layer_metrics(const Phase& untraced, const Phase& traced,
                              const std::vector<Span>& spans,
                              const ProbeTotals& probe) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  std::unordered_map<std::uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::map<std::string, std::vector<double>> ms;  // durations by name
  std::vector<double> job_self_ms, engine_wait_ms;
  std::vector<std::pair<std::int64_t, std::int64_t>> batch_intervals;
  double eval_busy_ns = 0.0;
  for (const Span& s : spans) {
    ms[s.name].push_back(static_cast<double>(s.duration_ns()) / 1e6);
    const std::string name = s.name;
    if (name == "job") {
      job_self_ms.push_back(
          static_cast<double>(self_ns(s, children[s.id])) / 1e6);
    } else if (name == "eval.batch") {
      batch_intervals.emplace_back(s.start_ns, s.end_ns);
    } else if (name == "eval") {
      eval_busy_ns += static_cast<double>(s.duration_ns());
      const auto parent = by_id.find(s.parent);
      if (parent != by_id.end()) {
        engine_wait_ms.push_back(
            static_cast<double>(s.start_ns - parent->second->start_ns) / 1e6);
      }
    }
  }
  const double jobs = static_cast<double>(traced.jobs.size());
  double iterations = 0.0;
  double dependent = 0.0;
  for (const JobRecord& job : traced.jobs) {
    iterations += job.result.generations_run;
    dependent += job.replay_eligible ? 0.0 : 1.0;
  }
  const double replays = static_cast<double>(probe.replays);
  const auto per_eval = [&](std::uint64_t count) {
    return replays > 0 ? static_cast<double>(count) / replays : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const std::optional<double> eval_p99 =
      tail_percentile(ms["eval"], kEvalTail);
  if (!eval_p99) problem("fewer evaluations than p99 needs");
  const double batch_wall_ns =
      static_cast<double>(covered_ns(batch_intervals));
  const std::uint64_t failed = report_.failed;

  metric("stack.us_per_eval", ratio(probe.replay_us, probe.configs), "us");
  metric("mpi.barriers_per_eval", per_eval(probe.barriers), "count");
  metric("mpi.collective_bytes_per_eval", per_eval(probe.collective_bytes),
         "bytes");
  metric("pfs.writes_per_eval", per_eval(probe.pfs_writes), "count");
  metric("pfs.reads_per_eval", per_eval(probe.pfs_reads), "count");
  metric("pfs.metadata_ops_per_eval", per_eval(probe.metadata_ops), "count");
  metric("pfs.rmw_bytes_per_eval", per_eval(probe.rmw_bytes), "bytes");
  metric("h5.chunk_cache.hit_ratio",
         ratio(static_cast<double>(probe.chunk_hits),
               static_cast<double>(probe.chunk_hits + probe.chunk_misses)),
         "frac");
  metric("interp.self_us_per_eval",
         ratio(probe.exec_us - probe.replay_us, probe.configs), "us");
  metric("replay.replayed_frac",
         ratio(static_cast<double>(traced.counters.replayed),
               static_cast<double>(traced.counters.replayed +
                                   traced.counters.interpreted)),
         "frac");
  metric("replay.gate_ms_p50", median(ms["replay.gate"]), "ms");
  metric("replay.gate_dependent_frac", ratio(dependent, jobs), "frac");
  metric("discovery.discover_io_ms_p50", median(ms["discovery.discover_io"]),
         "ms");
  metric("analysis.lint_ms_p50", median(ms["analysis.lint"]), "ms");
  metric("tuner.self_ms_per_job", mean(job_self_ms), "ms");
  metric("tuner.batches_per_job", ratio(iterations, jobs), "count");
  metric("tuner.fitness_cache_hits_per_job",
         ratio(static_cast<double>(traced.counters.fitness_hits), jobs),
         "count");
  metric("rl.stop_decisions_per_job",
         ratio(static_cast<double>(traced.counters.rl_decisions), jobs),
         "count");
  metric("service.engine.utilization",
         ratio(eval_busy_ns, batch_wall_ns * traced.workers), "frac");
  metric("service.engine.wait_p50_ms", median(engine_wait_ms), "ms");
  metric("eval.latency_p50_ms", median(ms["eval"]), "ms");
  metric("eval.latency_p99_ms", eval_p99.value_or(0.0), "ms");
  metric("service.cache.hit_ratio", traced.cache.hit_rate(), "frac");
  metric("service.cache.seconds_saved_min",
         ratio(traced.cache.seconds_saved / 60.0, jobs), "min");
  metric("service.server.queue_wait_p50_ms", median(ms["server.queue"]), "ms");
  metric("setup.train_smart_config_s", median(train_smart_s_), "s");
  metric("setup.train_early_stop_s", median(train_early_s_), "s");
  metric("trace.overhead_frac",
         1.0 - traced.rates(throughput_block()).jobs_per_min /
                   untraced.rates(throughput_block()).jobs_per_min,
         "frac");
  metric("job_fail_frac",
         ratio(static_cast<double>(failed),
               static_cast<double>(report_.attempted)),
         "frac");
}

void Bench::write_spans(const std::vector<Span>& spans) const {
  if (options_.spans_path.empty()) return;
  std::ofstream out(options_.spans_path);
  out << "name,start_ns,end_ns,id,parent,job\n";
  for (const Span& s : spans) {
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.id
        << ',' << s.parent << ',' << s.job << '\n';
  }
  if (!out) {
    std::fprintf(stderr, "jobbench: could not write %s\n",
                 options_.spans_path.c_str());
  }
}

Report Bench::run() {
  setup();
  if (!options_.trace) {
    const Phase phase = run_phase(
        {options_.seconds, std::max(kMinJobs, outcome_jobs()), 0});
    check_outputs(phase);
    check_worker_independence(phase);
    end_to_end_metrics(phase);
    return report_;
  }
  const double half = options_.seconds / 2.0;
  const Phase untraced = run_phase({half, 1, 0});
  set_enabled(true);
  const Phase traced =
      run_phase({half, kProbeJobs, min_samples_for(kEvalTail)});
  set_enabled(false);
  // Every thread that recorded has been joined by now.
  const std::vector<Span> spans = collect();
  write_spans(spans);
  check_outputs(untraced);
  check_outputs(traced);
  check_worker_independence(untraced);
  ProbeTotals totals;
  probe(traced, totals);
  per_layer_metrics(untraced, traced, spans, totals);
  return report_;
}

}  // namespace

Report run_benchmark(const RunOptions& options) {
  return Bench(options).run();
}

std::string to_json_line(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace jobbench

// The benchmark's workloads and their seeded job generators.
//
// Each workload is a stream of whole tuning jobs. Job `i` of a workload
// is a pure function of (seed, i), so the same seed always yields the
// same job list, and a run can draw as many jobs as its time allows.
// Seed 9001 is held in reserve: no change may be tuned against it, so a
// claimed gain can be confirmed on inputs nobody has looked at.
//
// Why these workloads:
//   * paper_checkpoint — the paper's Fig. 11 regime: full TunIO jobs
//     (impact-first GA + RL early stop) on the write-heavy native kernels
//     HACC, FLASH, VPIC and MACSio at 128 ranks. Evaluations replay, so
//     host time sits in the simulated stack (hdf5lite, mpiio, mpisim,
//     pfs), RL/NN training and engine parallelism; the interpreter,
//     discovery and analysis do no work.
//   * paper_read — the same job shape on read-dominated BD-CATS, so a
//     change that speeds up the write path at the expense of reads
//     (pfs reads, data sieving, chunk cache) shows. Runnable by name, but
//     not listed in BENCHMARK.json: on a host with CPU steal its wall-clock
//     figures spread too widely across seeds to gate on.
//   * service_churn — many small mini-C jobs through a TuningServer with
//     queueing and cache repeats. The interpreter, discovery, analysis,
//     search strategies (BO model fitting on sub-ms evaluations), the
//     replay gate and the service's scheduling and cache do most of the
//     work; the 128-rank stack does none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "workloads/workload.hpp"

namespace jobbench {

enum class Workload { kPaperCheckpoint, kPaperRead, kServiceChurn };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

/// One paper-scale job: a native kernel (compute stripped) at 128 ranks.
struct PaperJob {
  std::size_t index = 0;
  std::shared_ptr<const tunio::wl::Workload> workload;
  std::string params;  ///< the drawn sizes, for logs and determinism tests
  unsigned ranks = 128;
  std::uint64_t testbed_seed = 0;
  std::uint64_t ga_seed = 0;
};

/// Job `index` of a paper workload (kPaperCheckpoint or kPaperRead).
/// Sizes come from five classes per kernel; each kernel's jobs use every
/// class once per block of five, in a seeded order, so that the first
/// 100 jobs of any seed have the same size mix.
PaperJob paper_job(Workload workload, std::uint64_t seed, std::size_t index);

/// One service submission: a generated mini-C program.
struct ChurnJob {
  std::size_t index = 0;
  std::string template_name;  ///< which wl::sources template
  std::string source;
  unsigned ranks = 8;
  /// The program sizes or branches its I/O on a tuned_* value, so the
  /// replay gate must reject it.
  bool settings_dependent = false;
  std::string backend;  ///< ga / bo / rule / random
  std::uint64_t testbed_seed = 0;
  std::uint64_t tuner_seed = 0;
  /// Set when this submission repeats an earlier job's spec verbatim;
  /// holds that (original, non-repeat) job's index.
  std::optional<std::size_t> repeat_of;

  /// Index of the job whose cache namespace this one uses.
  std::size_t origin() const { return repeat_of.value_or(index); }
};

/// Submissions before this index never repeat; a repeat always names a
/// job at least this many and at most kRepeatWindow submissions back.
inline constexpr std::size_t kRepeatDistance = 8;
inline constexpr std::size_t kRepeatWindow = 64;

/// Job `index` of service_churn. From index kRepeatDistance on, each
/// block of four submissions holds exactly one repeat; every block of 20
/// originals pairs each of the five templates with each of the four
/// backends once, and every block of four originals holds exactly one
/// settings-dependent program. Sizes, loop counts and ranks are drawn
/// per job.
ChurnJob churn_job(std::uint64_t seed, std::size_t index);

/// Every field of a job, as text (determinism checks).
std::string describe(const PaperJob& job);
std::string describe(const ChurnJob& job);

}  // namespace jobbench

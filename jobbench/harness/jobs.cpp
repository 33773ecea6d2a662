#include "harness/jobs.hpp"

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "workloads/sources.hpp"

namespace jobbench {

using tunio::KiB;
using tunio::MiB;
using tunio::Rng;

namespace {

constexpr std::uint64_t kPaperStream = 0x9A9E'0001;
constexpr std::uint64_t kChurnStream = 0xC4E2'0002;

Rng job_rng(std::uint64_t seed, std::uint64_t stream, std::size_t index) {
  return Rng(tunio::derive_stream(tunio::derive_stream(seed, stream), index));
}

template <typename T>
T pick(Rng& rng, const std::vector<T>& values) {
  return rng.choice(values);
}

std::uint64_t pow2(Rng& rng, int lo, int hi) {
  return 1ull << rng.uniform_int(lo, hi);
}

/// Paper jobs: size classes per kernel.
constexpr std::size_t kSizeClasses = 5;

/// A seeded permutation of 0..n-1 for block `block` of a stratified
/// sequence: every block holds each of the n kinds exactly once, so any
/// whole number of blocks has the same mix whatever the seed.
std::vector<std::size_t> block_order(std::uint64_t seed, std::uint64_t stream,
                                     std::size_t block, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng = job_rng(seed, stream, block);
  rng.shuffle(order);
  return order;
}

/// Replaces the single occurrence of `from`; a template that no longer
/// contains it is a generator bug, not a job to skip.
void replace_once(std::string& text, const std::string& from,
                  const std::string& to) {
  const std::size_t at = text.find(from);
  TUNIO_CHECK_MSG(at != std::string::npos && text.find(from, at + 1) ==
                                                 std::string::npos,
                  "template line not found exactly once: " + from);
  text.replace(at, from.size(), to);
}

std::string line(const std::string& decl, std::uint64_t value) {
  return "  int " + decl + " = " + std::to_string(value) + ";";
}

struct Template {
  const char* name;
  std::string (*source)();
  /// Element-count variable whose value sizes the writes, its original
  /// declaration, and elements per KiB (1024 / element size).
  const char* size_var;
  const char* size_decl;
  unsigned elems_per_kib;
};

const std::vector<Template>& templates() {
  static const std::vector<Template> all = {
      {"macsio", tunio::wl::sources::macsio_vpic, "part_elems",
       "  int part_elems = 131072;", 128},
      {"vpic", tunio::wl::sources::vpic, "np", "  int np = 524288;", 256},
      {"flash", tunio::wl::sources::flash, "block_elems",
       "  int block_elems = 12288;", 128},
      {"hacc", tunio::wl::sources::hacc, "np", "  int np = 1048576;", 256},
      {"bdcats", tunio::wl::sources::bdcats, "np", "  int np = 1048576;",
       256},
  };
  return all;
}

/// Seeded loop counts and sizes for one template.
std::string sized_source(const Template& t, Rng& rng) {
  std::string src = t.source();
  const std::string name = t.name;
  if (name == "macsio") {
    replace_once(src, "  int num_dumps = 10;",
                 line("num_dumps", rng.uniform_int(2, 6)));
    replace_once(src, t.size_decl,
                 line("part_elems", pick<std::uint64_t>(
                                        rng, {16384, 32768, 65536, 131072})));
    replace_once(src, "l < 256;",
                 "l < " + std::to_string(rng.uniform_int(16, 256)) + ";");
  } else if (name == "vpic") {
    replace_once(src, t.size_decl, line("np", pow2(rng, 14, 18)));
    replace_once(src, "  int timesteps = 2;",
                 line("timesteps", rng.uniform_int(1, 3)));
  } else if (name == "flash") {
    replace_once(src, "  int blocks = 8;", line("blocks", rng.uniform_int(2, 8)));
    replace_once(src, t.size_decl,
                 line("block_elems",
                      pick<std::uint64_t>(rng, {3072, 6144, 12288})));
    replace_once(src, "  int datasets = 12;",
                 line("datasets", rng.uniform_int(4, 12)));
  } else if (name == "hacc") {
    replace_once(src, t.size_decl, line("np", pow2(rng, 14, 18)));
  } else {  // bdcats
    replace_once(src, t.size_decl, line("np", pow2(rng, 14, 18)));
    replace_once(src, "  int rounds = 4;", line("rounds", rng.uniform_int(1, 4)));
  }
  return src;
}

/// Makes the program's I/O depend on the resolved settings, in one of
/// two ways real codes do: sizing writes to the stripe (alignment), or
/// branching on the stripe count.
void make_settings_dependent(const Template& t, std::string& src, Rng& rng) {
  if (rng.chance(0.5)) {
    const std::string var = t.size_var;
    const std::string unit =
        "tuned_stripe_size_kib() * " + std::to_string(t.elems_per_kib);
    // Insert right after the (already resized) declaration.
    const std::string decl = "  int " + var + " = ";
    const std::size_t at = src.find(decl);
    TUNIO_CHECK_MSG(at != std::string::npos, "size declaration missing");
    const std::size_t eol = src.find('\n', at);
    src.insert(eol + 1, "  " + var + " = max(" + var + " - " + var + " % (" +
                            unit + "), " + std::to_string(t.elems_per_kib) +
                            ");\n");
    return;
  }
  const std::size_t at = src.rfind("  return ");
  TUNIO_CHECK_MSG(at != std::string::npos, "main has no return");
  src.insert(at,
             "  if (tuned_stripe_count() > 4)\n"
             "  {\n"
             "    int extra = h5fcreate(\"/scratch/extra.h5\");\n"
             "    h5fclose(extra);\n"
             "  }\n");
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "paper_checkpoint") return Workload::kPaperCheckpoint;
  if (name == "paper_read") return Workload::kPaperRead;
  if (name == "service_churn") return Workload::kServiceChurn;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPaperCheckpoint: return "paper_checkpoint";
    case Workload::kPaperRead: return "paper_read";
    case Workload::kServiceChurn: return "service_churn";
  }
  return "unknown";
}

PaperJob paper_job(Workload workload, std::uint64_t seed, std::size_t index) {
  TUNIO_CHECK_MSG(workload != Workload::kServiceChurn,
                  "service_churn jobs are mini-C programs");
  const std::uint64_t stream = kPaperStream + static_cast<int>(workload);
  // paper_checkpoint cycles HACC, FLASH, VPIC, MACSio; paper_read is all
  // BD-CATS. Each kernel's jobs come in blocks of kSizeClasses that use
  // every size class once, in a seeded order.
  const std::size_t kernels = workload == Workload::kPaperRead ? 1 : 4;
  const std::size_t kernel = index % kernels;
  const std::size_t nth = index / kernels;
  const std::size_t size_class = block_order(
      seed, stream + 16 * (kernel + 1), nth / kSizeClasses,
      kSizeClasses)[nth % kSizeClasses];
  Rng rng = job_rng(seed, stream, index);

  PaperJob job;
  job.index = index;
  std::ostringstream params;
  if (workload == Workload::kPaperRead) {
    struct Size {
      std::uint64_t particles;
      unsigned variables, rounds;
      tunio::Bytes result;
    };
    static const Size sizes[kSizeClasses] = {{1u << 22, 2, 2, 256 * KiB},
                                             {1u << 22, 3, 4, 1 * MiB},
                                             {1u << 23, 3, 2, 256 * KiB},
                                             {1u << 23, 2, 3, 1 * MiB},
                                             {1u << 24, 3, 3, 256 * KiB}};
    tunio::wl::BdcatsParams p;
    p.particles_per_rank = sizes[size_class].particles;
    p.variables = sizes[size_class].variables;
    p.clustering_rounds = sizes[size_class].rounds;
    p.result_bytes_per_rank = sizes[size_class].result;
    params << "particles=" << p.particles_per_rank << " vars=" << p.variables
           << " rounds=" << p.clustering_rounds
           << " result=" << p.result_bytes_per_rank;
    job.workload = tunio::wl::make_bdcats(p);
  } else if (kernel == 0) {
    static const std::uint64_t particles[kSizeClasses] = {
        1u << 20, 3u << 19, 1u << 21, 3u << 20, 1u << 22};
    tunio::wl::HaccParams p;
    p.particles_per_rank = particles[size_class];
    params << "particles=" << p.particles_per_rank;
    job.workload = tunio::wl::make_hacc(p);
  } else if (kernel == 1) {
    struct Size {
      unsigned blocks;
      tunio::Bytes block;
      unsigned datasets;
    };
    static const Size sizes[kSizeClasses] = {{2, 96 * KiB, 6},
                                             {2, 192 * KiB, 8},
                                             {4, 96 * KiB, 6},
                                             {4, 192 * KiB, 8},
                                             {6, 96 * KiB, 8}};
    tunio::wl::FlashParams p;
    p.blocks_per_rank = sizes[size_class].blocks;
    p.block_bytes = sizes[size_class].block;
    p.checkpoint_datasets = sizes[size_class].datasets;
    params << "blocks=" << p.blocks_per_rank << " block=" << p.block_bytes
           << " datasets=" << p.checkpoint_datasets;
    job.workload = tunio::wl::make_flash(p);
  } else if (kernel == 2) {
    struct Size {
      std::uint64_t particles;
      unsigned steps;
    };
    static const Size sizes[kSizeClasses] = {
        {1u << 20, 1}, {1u << 21, 1}, {1u << 20, 2}, {1u << 21, 2},
        {1u << 22, 1}};
    tunio::wl::VpicParams p;
    p.particles_per_rank = sizes[size_class].particles;
    p.timesteps = sizes[size_class].steps;
    params << "particles=" << p.particles_per_rank << " steps=" << p.timesteps;
    job.workload = tunio::wl::make_vpic(p);
  } else {
    struct Size {
      unsigned dumps;
      tunio::Bytes per_dump, part;
    };
    static const Size sizes[kSizeClasses] = {{1, 8 * MiB, 2 * MiB},
                                             {2, 8 * MiB, 2 * MiB},
                                             {2, 16 * MiB, 4 * MiB},
                                             {3, 8 * MiB, 2 * MiB},
                                             {4, 8 * MiB, 2 * MiB}};
    tunio::wl::MacsioParams p;
    p.num_dumps = sizes[size_class].dumps;
    p.bytes_per_rank_per_dump = sizes[size_class].per_dump;
    p.part_bytes = sizes[size_class].part;
    params << "dumps=" << p.num_dumps
           << " per_dump=" << p.bytes_per_rank_per_dump
           << " part=" << p.part_bytes;
    job.workload = tunio::wl::make_macsio(p);
  }
  job.params = params.str();
  job.testbed_seed = rng.engine()();
  job.ga_seed = rng.engine()();
  return job;
}

namespace {

const std::vector<std::string>& backends() {
  static const std::vector<std::string> all = {"ga", "bo", "rule", "random"};
  return all;
}

/// Slot of the one repeat in block `block` of four submissions.
std::size_t repeat_slot(std::uint64_t seed, std::size_t block) {
  return job_rng(seed, kChurnStream + 1, block).index(4);
}

bool is_repeat(std::uint64_t seed, std::size_t index) {
  if (index < kRepeatDistance) return false;
  const std::size_t offset = index - kRepeatDistance;
  return offset % 4 == repeat_slot(seed, offset / 4);
}

/// Position of an original submission among the originals.
std::size_t original_ordinal(std::uint64_t seed, std::size_t index) {
  if (index < kRepeatDistance) return index;
  const std::size_t offset = index - kRepeatDistance;
  const std::size_t slot = offset % 4;
  return kRepeatDistance + 3 * (offset / 4) +
         (slot < repeat_slot(seed, offset / 4) ? slot : slot - 1);
}

ChurnJob original_job(std::uint64_t seed, std::size_t index) {
  const std::size_t ordinal = original_ordinal(seed, index);
  // Every block of 20 originals pairs each template with each backend
  // once; every block of 4 originals has one settings-dependent program.
  const std::size_t pairs = templates().size() * backends().size();
  const std::size_t pair = block_order(seed, kChurnStream + 2,
                                       ordinal / pairs, pairs)[ordinal % pairs];
  Rng rng = job_rng(seed, kChurnStream, ordinal);
  ChurnJob job;
  job.index = index;
  const Template& t = templates()[pair / backends().size()];
  job.template_name = t.name;
  job.backend = backends()[pair % backends().size()];
  job.source = sized_source(t, rng);
  job.ranks = static_cast<unsigned>(rng.uniform_int(8, 32));
  job.settings_dependent =
      ordinal % 4 == job_rng(seed, kChurnStream + 3, ordinal / 4).index(4);
  if (job.settings_dependent) make_settings_dependent(t, job.source, rng);
  job.testbed_seed = rng.engine()();
  job.tuner_seed = rng.engine()();
  return job;
}

}  // namespace

ChurnJob churn_job(std::uint64_t seed, std::size_t index) {
  if (!is_repeat(seed, index)) return original_job(seed, index);
  // Repeat an original submitted between kRepeatWindow and
  // kRepeatDistance submissions ago.
  std::vector<std::size_t> candidates;
  const std::size_t first = index > kRepeatWindow ? index - kRepeatWindow : 0;
  for (std::size_t j = first; j + kRepeatDistance <= index; ++j) {
    if (!is_repeat(seed, j)) candidates.push_back(j);
  }
  Rng rng = job_rng(seed, kChurnStream + 4, index);
  ChurnJob job = original_job(seed, rng.choice(candidates));
  job.repeat_of = job.index;
  job.index = index;
  return job;
}

std::string describe(const PaperJob& job) {
  std::ostringstream out;
  out << job.index << ' ' << job.workload->name() << ' ' << job.params
      << " ranks=" << job.ranks << " tb=" << job.testbed_seed
      << " ga=" << job.ga_seed;
  return out.str();
}

std::string describe(const ChurnJob& job) {
  std::ostringstream out;
  out << job.index << ' ' << job.template_name << " ranks=" << job.ranks
      << " dependent=" << job.settings_dependent << " backend=" << job.backend
      << " tb=" << job.testbed_seed << " tuner=" << job.tuner_seed
      << " repeat_of="
      << (job.repeat_of ? std::to_string(*job.repeat_of) : "-") << '\n'
      << job.source;
  return out.str();
}

}  // namespace jobbench

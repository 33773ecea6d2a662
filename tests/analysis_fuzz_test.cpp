// Differential fuzz harness for the static-analysis stack: a seeded
// generator produces ~200 random mini-C programs (bounded loops, nested
// branches, helper calls, tuned_* reads that are dead, overwritten, or
// flowing into I/O) and cross-checks every layer against the
// interpreter as ground truth:
//
//   1. the slicer's kept set is a subset of the legacy marker's (the
//      test-only oracle of oracle/oracle.hpp), and it is exactly what
//      discovery keeps,
//   2. the sliced kernel performs exactly the application's I/O,
//   3. predicted cost intervals contain the measured op/byte counts,
//   4. the taint gate is monotone w.r.t. the slicer-verdict oracle, and
//   5. taint-invariant programs record bit-identical op traces under
//      two extreme configurations (the property the replay fast path
//      relies on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cost_model.hpp"
#include "analysis/slicer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/space.hpp"
#include "config/stack_settings.hpp"
#include "discovery/discovery.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "mpisim/mpisim.hpp"
#include "oracle/oracle.hpp"
#include "pfs/pfs.hpp"
#include "replay/hooks.hpp"
#include "replay/invariance.hpp"
#include "replay/optrace.hpp"
#include "replay/trace_stats.hpp"

namespace tunio {
namespace {

constexpr unsigned kRanks = 4;
constexpr int kNumPrograms = 200;

// Conservative upper bound for any tuned_* read under any configuration
// of the tunio12 space (stripe sizes are the largest, in KiB).
constexpr std::int64_t kTunedBound = 1 << 17;
// Cap on the generator's conservative per-variable value bound so write
// volumes stay small enough for a 200-program ctest run.
constexpr std::int64_t kMaxBound = 1 << 20;

// --- random program generator ----------------------------------------

/// A "size-class" variable: provably positive by construction, so it is
/// safe to use as an element count (the interpreter casts counts to
/// uint64, where a negative value would mean an astronomically large
/// write). `bound` conservatively tracks the largest value the variable
/// can hold, so multiplications can be capped.
struct SizeVar {
  std::string name;
  std::int64_t bound = 1;
};

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    has_helper_ = rng_.chance(0.4);
    std::ostringstream out;
    if (has_helper_) {
      out << "int scaled(int n)\n{\n  return n * 2;\n}\n";
    }
    out << "int main()\n{\n";
    emit(out, "int f = h5fcreate(\"/fuzz/app.h5\");");
    const int num_datasets = rng_.chance(0.35) ? 2 : 1;
    for (int d = 0; d < num_datasets; ++d) {
      const std::int64_t elem =
          rng_.choice(std::vector<std::int64_t>{1, 4, 8});
      // The extent must admit the generator's worst-case per-rank count
      // (kMaxBound + small addends) on every rank; dataset extents are
      // simulated metadata, so a large one costs nothing.
      std::ostringstream line;
      line << "int d" << d << " = h5dcreate(f, \"data" << d << "\", " << elem
           << ", " << (kRanks + 12) * kMaxBound << ");";
      emit(out, line.str());
      std::string handle = "d";
      handle += std::to_string(d);
      datasets_.push_back(std::move(handle));
    }
    // Seed the taint-recovery scenario into a slice of the corpus: a
    // tuned read that is overwritten with a constant before it feeds an
    // I/O count. The def-use slicer keeps the declaration (the kept
    // reassignment needs it) and calls the program dependent; the taint
    // gate proves the tuned value itself never escapes.
    if (rng_.chance(0.2)) {
      const std::string name = fresh("t");
      emit(out, "int " + name + " = " + tuned_call() + ";");
      const std::int64_t v = rng_.uniform_int(1, 64);
      emit(out, name + " = " + std::to_string(v) + ";");
      emit(out, "h5dwrite_all(" + rng_.choice(datasets_) + ", " + name + ");");
      size_vars_.push_back({name, v});
    }
    const int top_stmts = static_cast<int>(rng_.uniform_int(4, 10));
    for (int i = 0; i < top_stmts; ++i) gen_stmt(out, 0);
    emit(out, "h5fclose(f);");
    emit(out, "return 0;");
    out << "}\n";
    return out.str();
  }

 private:
  void emit(std::ostringstream& out, const std::string& line) {
    for (int i = 0; i < indent_ + 1; ++i) out << "  ";
    out << line << "\n";
  }

  std::string fresh(const char* prefix) {
    return prefix + std::to_string(next_id_++);
  }

  std::string tuned_call() {
    return rng_.choice(std::vector<std::string>{
               "tuned_stripe_count", "tuned_stripe_size_kib",
               "tuned_cb_nodes"}) +
           "()";
  }

  /// Expression that is positive under every configuration; returns the
  /// text and a conservative upper bound on its value.
  std::pair<std::string, std::int64_t> size_expr() {
    const int pick = static_cast<int>(rng_.uniform_int(0, 5));
    if (pick <= 1 || size_vars_.empty()) {
      if (pick == 0 && rng_.chance(0.5)) {
        return {tuned_call(), kTunedBound};
      }
      const std::int64_t c = rng_.uniform_int(1, 64);
      return {std::to_string(c), c};
    }
    const SizeVar& v = size_vars_[rng_.index(size_vars_.size())];
    if (pick == 2) return {v.name, v.bound};
    if (pick == 3) {
      const std::int64_t c = rng_.uniform_int(1, 16);
      return {v.name + " + " + std::to_string(c), v.bound + c};
    }
    if (pick == 4 && has_helper_ && v.bound * 2 <= kMaxBound) {
      return {"scaled(" + v.name + ")", v.bound * 2};
    }
    const std::int64_t m = rng_.uniform_int(2, 4);
    if (v.bound * m <= kMaxBound) {
      return {v.name + " * " + std::to_string(m), v.bound * m};
    }
    return {v.name, v.bound};
  }

  /// Arbitrary integer expression (may be negative); never feeds an I/O
  /// count, only branch conditions and dead arithmetic.
  std::string scratch_expr() {
    auto atom = [&]() -> std::string {
      if (!scratch_vars_.empty() && rng_.chance(0.5)) {
        return rng_.choice(scratch_vars_);
      }
      return std::to_string(rng_.uniform_int(-16, 16));
    };
    if (rng_.chance(0.4)) return atom();
    const std::string op = rng_.choice(std::vector<std::string>{"+", "-", "*"});
    return atom() + " " + op + " " + atom();
  }

  std::string cond_expr() {
    std::string lhs;
    if (!size_vars_.empty() && rng_.chance(0.5)) {
      lhs = size_vars_[rng_.index(size_vars_.size())].name;
    } else if (!scratch_vars_.empty() && rng_.chance(0.7)) {
      lhs = rng_.choice(scratch_vars_);
    } else {
      lhs = std::to_string(rng_.uniform_int(-4, 8));
    }
    const std::string op = rng_.chance(0.5) ? " < " : " > ";
    return lhs + op + std::to_string(rng_.uniform_int(-2, 32));
  }

  void gen_io(std::ostringstream& out) {
    const int pick = static_cast<int>(rng_.uniform_int(0, 5));
    if (pick <= 1) {
      emit(out, "h5dwrite_all(" + rng_.choice(datasets_) + ", " +
                    size_expr().first + ");");
    } else if (pick == 2) {
      emit(out, "h5dread_all(" + rng_.choice(datasets_) + ", " +
                    size_expr().first + ");");
    } else if (pick == 3) {
      emit(out, "h5dwrite_strided(" + rng_.choice(datasets_) + ", " +
                    std::to_string(rng_.uniform_int(0, 3)) + ", " +
                    std::to_string(rng_.uniform_int(1, 32)) + ");");
    } else if (pick == 4) {
      emit(out, "fprintf_log(\"/fuzz/app.log\", " +
                    std::to_string(rng_.uniform_int(64, 2048)) + ");");
    } else {
      emit(out, rng_.chance(0.5) ? "compute(0.001);" : "mpi_barrier();");
    }
  }

  /// Emits a braced block of `n` statements; variables declared inside
  /// go out of scope (and out of the generator's pools) at the brace.
  void gen_block(std::ostringstream& out, int depth, int n) {
    emit(out, "{");
    ++indent_;
    const std::size_t size_mark = size_vars_.size();
    const std::size_t scratch_mark = scratch_vars_.size();
    for (int i = 0; i < n; ++i) gen_stmt(out, depth);
    size_vars_.resize(size_mark);
    scratch_vars_.resize(scratch_mark);
    --indent_;
    emit(out, "}");
  }

  void gen_stmt(std::ostringstream& out, int depth) {
    const int pick = static_cast<int>(rng_.uniform_int(0, 11));
    switch (pick) {
      case 0: {  // size declaration
        auto [expr, bound] = size_expr();
        const std::string name = fresh("s");
        emit(out, "int " + name + " = " + expr + ";");
        size_vars_.push_back({name, bound});
        return;
      }
      case 1: {  // scratch declaration (dead-code fodder for the slicer)
        const std::string name = fresh("x");
        emit(out, "int " + name + " = " + scratch_expr() + ";");
        scratch_vars_.push_back(name);
        return;
      }
      case 2: {  // size reassignment: constant / other size var / tuned.
        // No arithmetic on the target, so loop-carried values cannot
        // compound past the tracked bound.
        if (size_vars_.empty()) break;
        SizeVar& v = size_vars_[rng_.index(size_vars_.size())];
        const int rhs = static_cast<int>(rng_.uniform_int(0, 2));
        if (rhs == 0) {
          const std::int64_t c = rng_.uniform_int(1, 64);
          emit(out, v.name + " = " + std::to_string(c) + ";");
          v.bound = std::max(v.bound, c);
        } else if (rhs == 1) {
          const SizeVar& src = size_vars_[rng_.index(size_vars_.size())];
          emit(out, v.name + " = " + src.name + ";");
          v.bound = std::max(v.bound, src.bound);
        } else {
          emit(out, v.name + " = " + tuned_call() + ";");
          v.bound = std::max(v.bound, kTunedBound);
        }
        return;
      }
      case 3: {  // scratch reassignment
        if (scratch_vars_.empty()) break;
        emit(out, rng_.choice(scratch_vars_) + " = " + scratch_expr() + ";");
        return;
      }
      case 4: {  // branch (occasionally on a tuned-tainted condition)
        if (depth >= 2) break;
        emit(out, "if (" + cond_expr() + ")");
        gen_block(out, depth + 1, static_cast<int>(rng_.uniform_int(1, 3)));
        if (rng_.chance(0.4)) {
          emit(out, "else");
          gen_block(out, depth + 1, static_cast<int>(rng_.uniform_int(1, 2)));
        }
        return;
      }
      case 5: {  // bounded counting loop
        if (depth >= 2) break;
        const std::string i = fresh("i");
        emit(out, "for (int " + i + " = 0; " + i + " < " +
                      std::to_string(rng_.uniform_int(1, 4)) + "; " + i +
                      " = " + i + " + 1)");
        gen_block(out, depth + 1, static_cast<int>(rng_.uniform_int(1, 3)));
        return;
      }
      case 6: {  // rare guarded early return (possibly tuned-controlled)
        if (!rng_.chance(0.15)) break;
        emit(out, "if (" + cond_expr() + ")");
        emit(out, "{");
        ++indent_;
        emit(out, "return 0;");
        --indent_;
        emit(out, "}");
        return;
      }
      default:
        break;
    }
    gen_io(out);
  }

  Rng rng_;
  int next_id_ = 0;
  int indent_ = 0;
  bool has_helper_ = false;
  std::vector<std::string> datasets_;
  std::vector<SizeVar> size_vars_;
  std::vector<std::string> scratch_vars_;
};

// --- interpreter ground truth ----------------------------------------

replay::OpTrace record(const minic::Program& program,
                       const cfg::StackSettings& settings) {
  replay::Recorder recorder;
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    interp::execute(program, mpi, fs, settings);
  }
  EXPECT_TRUE(recorder.valid()) << recorder.error();
  return recorder.take();
}

/// Full structural rendering of a trace — two traces are behaviourally
/// identical for replay purposes iff their fingerprints match.
std::string fingerprint(const replay::OpTrace& trace) {
  std::ostringstream out;
  out << trace.num_files << '/' << trace.num_datasets << '\n';
  for (const replay::Op& op : trace.ops) {
    out << static_cast<int>(op.kind) << ' ' << op.flag << op.flag2 << ' '
        << op.id << ' ' << op.a << ' ' << op.b << ' ' << op.c << ' '
        << op.seconds << ' ' << op.salt << ' ' << op.sel_begin << '+'
        << op.sel_count << ' ' << op.text << '\n';
  }
  for (const replay::Sel& sel : trace.sels) {
    out << sel.rank << ':' << sel.start_element << ':' << sel.count << '\n';
  }
  return out.str();
}

void expect_same_counts(const replay::AppIoCounts& a,
                        const replay::AppIoCounts& b) {
  EXPECT_EQ(a.write_ops, b.write_ops);
  EXPECT_EQ(a.read_ops, b.read_ops);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.file_opens, b.file_opens);
  EXPECT_EQ(a.dataset_creates, b.dataset_creates);
}

void expect_contains(const analysis::Interval& predicted, std::uint64_t got,
                     const char* what) {
  EXPECT_TRUE(predicted.contains(static_cast<std::int64_t>(got)))
      << what << ": measured " << got << " outside predicted "
      << predicted.str();
}

// --- the harness ------------------------------------------------------

TEST(AnalysisFuzz, DifferentialOverRandomPrograms) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  cfg::Configuration narrow = space.default_configuration();
  cfg::Configuration wide = space.default_configuration();
  for (std::size_t p = 0; p < space.num_parameters(); ++p) {
    narrow.set_index(p, 0);
    wide.set_index(p, space.parameter(p).domain.size() - 1);
  }
  const cfg::StackSettings narrow_settings = cfg::resolve(narrow);
  const cfg::StackSettings wide_settings = cfg::resolve(wide);

  int recovered_programs = 0;
  int invariant_programs = 0;
  int dependent_programs = 0;

  for (int seed = 1; seed <= kNumPrograms; ++seed) {
    Generator generator(0xF022'0000u + static_cast<std::uint64_t>(seed));
    const std::string source = generator.generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + source);

    // Normalization round-trip, as discovery performs it, so statement
    // ids are identical for every engine below.
    const minic::Program program =
        minic::parse(minic::print(minic::parse(source)));

    // (1) Slicer kept-set is a subset of the legacy marker's kept-set.
    const std::vector<std::string> prefixes = {"h5", "fprintf_log"};
    const analysis::SliceResult slice = analysis::slice_io(program, prefixes);
    const std::set<int> legacy = oracle::mark_kept(program, prefixes);
    EXPECT_TRUE(std::includes(legacy.begin(), legacy.end(),
                              slice.kept.begin(), slice.kept.end()))
        << "slicer kept a statement the legacy marker drops";

    // (2) The sliced kernel performs exactly the application's I/O.
    discovery::DiscoveryOptions dopts;
    dopts.io_prefixes = prefixes;
    const discovery::KernelResult kernel_result =
        discovery::discover_io(program, dopts);
    EXPECT_EQ(kernel_result.kept_stmt_ids, slice.kept)
        << "discovery did not keep exactly the slicer's statements";
    const minic::Program kernel = minic::parse(kernel_result.kernel_source);
    const replay::AppIoCounts full_counts =
        replay::app_io_counts(record(program, cfg::default_settings()));
    const replay::AppIoCounts kernel_counts =
        replay::app_io_counts(record(kernel, cfg::default_settings()));
    expect_same_counts(full_counts, kernel_counts);

    // (3) Predicted cost intervals contain the measured quantities.
    analysis::CostOptions copts;
    copts.absint.mpi_ranks = analysis::Interval::constant(kRanks);
    const analysis::ProgramCost cost = analysis::predict_cost(program, copts);
    ASSERT_TRUE(cost.analyzable) << cost.failure;
    expect_contains(cost.write_ops, full_counts.write_ops, "write ops");
    expect_contains(cost.read_ops, full_counts.read_ops, "read ops");
    expect_contains(cost.bytes_written, full_counts.bytes_written,
                    "bytes written");
    expect_contains(cost.bytes_read, full_counts.bytes_read, "bytes read");
    expect_contains(cost.file_opens, full_counts.file_opens, "file opens");
    expect_contains(cost.dataset_creates, full_counts.dataset_creates,
                    "dataset creates");

    // (4) Gate monotonicity: a tuned value that provably reaches an op
    // site must also survive the backward slice — taint may only ever
    // *widen* eligibility relative to the PR-4 verdict, never report
    // dependence the slicer misses.
    const replay::InvarianceReport report =
        replay::analyze_invariance(program);
    EXPECT_FALSE(report.reason.empty());
    const bool slicer_dependent = oracle::slicer_dependent(program);
    if (report.tainted_sites > 0) {
      EXPECT_TRUE(slicer_dependent)
          << "taint found a dependent site the slicer missed";
    }
    if (!report.dependent && slicer_dependent) ++recovered_programs;

    // (5) Taint-invariant programs record bit-identical op streams under
    // two extreme configurations — the exact soundness property the
    // replay fast path needs from the gate.
    if (!report.dependent) {
      ++invariant_programs;
      EXPECT_EQ(fingerprint(record(program, narrow_settings)),
                fingerprint(record(program, wide_settings)))
          << "gate called this program invariant but its trace varies "
             "with the configuration";
    } else {
      ++dependent_programs;
    }
  }

  // The corpus must exercise both verdicts, and the injected
  // overwritten-tuned-read scenario must produce at least one program
  // the slicer rejects but taint recovers.
  EXPECT_GT(invariant_programs, 0);
  EXPECT_GT(dependent_programs, 0);
  EXPECT_GT(recovered_programs, 0)
      << "no program exercised the taint-recovery (slicer-dependent but "
         "taint-invariant) path";
}

TEST(AnalysisFuzz, DiscoveredKernelsMatchGolden) {
  // FNV-1a over every discovered kernel's source, in corpus order: any
  // change to discovery's marking or reconstruction shows here. The
  // slicer must accept every program: a throw here is a slicer bug.
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  int slicer_throws = 0;
  discovery::DiscoveryOptions dopts;
  dopts.io_prefixes = {"h5", "fprintf_log"};
  for (int seed = 1; seed <= kNumPrograms; ++seed) {
    Generator generator(0xF022'0000u + static_cast<std::uint64_t>(seed));
    const minic::Program program =
        minic::parse(minic::print(minic::parse(generator.generate())));
    try {
      analysis::slice_io(program, dopts.io_prefixes);
    } catch (const Error&) {
      ++slicer_throws;
    }
    for (char c : discovery::discover_io(program, dopts).kernel_source) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001B3ULL;
    }
  }
  EXPECT_EQ(slicer_throws, 0);
  EXPECT_EQ(hash, 0xE9625EBED573D022ULL);
}

}  // namespace
}  // namespace tunio

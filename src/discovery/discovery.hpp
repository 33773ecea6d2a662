// Application I/O Discovery (§III-B of the paper).
//
// Reduces an application's source to its I/O kernel "while retaining all
// statements necessary to perform I/O". The algorithm follows Figure 4:
//
//   1. parse the source to an AST (after one-statement-per-line
//      normalization, mirroring the paper's clang-format step);
//   2. find and mark I/O calls (HDF5-prefixed calls in the prototype);
//   3. mark their *dependents*: the definitions that reach each kept use
//      (the CFG/def-use backward slicer of analysis/slicer.hpp);
//   4. mark the *contextual parents* of every kept statement (the loop
//      or branch that encloses it), whose own dependents are then marked;
//   5. iterate to a fixpoint, then reconstruct the kernel from kept
//      statements only;
//   6. optionally apply reductions: Loop Reduction (run a percentage of
//      the iterations of I/O loops and extrapolate the metrics) and I/O
//      Path Switching (prepend a memory-tier prefix to every file path).
//
// If the kernel fails to build, callers fall back to the full
// application, as the paper specifies.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "minic/ast.hpp"

namespace tunio::discovery {

/// The memory-tier prefix used by I/O Path Switching (the simulator's
/// `/dev/shm` analogue).
inline constexpr const char* kMemoryPathPrefix = "/shm";

struct DiscoveryOptions {
  /// Call-name prefixes treated as I/O calls. The prototype targets HDF5.
  std::vector<std::string> io_prefixes = {"h5"};

  /// Loop Reduction: fraction of I/O-loop iterations to run (1.0 = off;
  /// the paper's Fig. 8(b) uses 0.01, i.e. 1% of the iterations).
  double loop_reduction = 1.0;

  /// I/O Path Switching: redirect all file paths to the memory tier.
  bool path_switching = false;

  /// Extra statements to keep regardless of the marking (the API's
  /// "manually indicated keep regions"), by statement id.
  std::set<int> manual_keep;
};

struct KernelResult {
  minic::Program kernel;          ///< the reconstructed, transformed AST
  std::string kernel_source;      ///< normalized source of the kernel
  std::set<int> kept_stmt_ids;    ///< which original statements survived
  int total_statements = 0;
  int kept_statements = 0;
  /// Loop-reduction divisor actually applied (1 when off); the metric
  /// extrapolation factor reported by the interpreter is based on the
  /// realized per-loop reductions.
  int loop_reduction_divisor = 1;
};

/// Full pipeline: mark, reconstruct, reduce. Throws `Error` when the
/// slicer cannot analyze the program (e.g. it has no `main`).
KernelResult discover_io(const minic::Program& program,
                         const DiscoveryOptions& options = {});

/// Convenience overload: parse + normalize + discover.
KernelResult discover_io(const std::string& source,
                         const DiscoveryOptions& options = {});

}  // namespace tunio::discovery

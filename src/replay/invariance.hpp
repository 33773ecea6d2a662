// Deciding when the record-once/replay-many fast path is sound.
//
// A recorded op stream can be reused across configurations only if the
// program that produced it issues the *same* application-level calls
// under every configuration — i.e. its control flow and call arguments
// never observe a resolved setting. The only way mini-C code observes
// settings is through the `tuned_*` builtins, so the question is whether
// a tuned value can reach an op-emitting call.
//
// Decision procedure (statement-granular settings-taint, PR-6):
//
//   1. Run the abstract interpreter (analysis/absint.hpp), which tracks
//      per-statement taint: values derived from `tuned_*` reads through
//      expressions, assignments, calls and returns, plus implicit flow
//      through tainted branch/loop conditions.
//   2. The program is *dependent* iff any op-emitting call site
//      (h5*, fprintf_log, compute, mpi_barrier) receives a tainted
//      argument or executes under tainted control — those are exactly
//      the calls whose presence, order or payload could change with the
//      configuration — or a `return` executes under tainted control
//      (early exit skips later ops: implicit flow the site check alone
//      would miss).
//   3. Programs the analyzer cannot finish soundly (recursion, budget
//      exhaustion) are conservatively dependent; the report says why so
//      the driver can surface the reason instead of silently falling
//      back to full interpretation.
//
// This is strictly more precise than a backward slice from op sites,
// which keeps any *statement* whose variables reach an op — e.g.
// `int s = tuned_x(); s = 8; h5dwrite_all(d, s);` is dependent under
// the slicer's scope-level rule but provably invariant under taint (the
// tuned value dies at the overwrite). The tests and bench/static_analysis
// keep that slicer verdict as an oracle and count the programs taint
// recovers.
#pragma once

#include <string>

#include "minic/ast.hpp"

namespace tunio::replay {

/// Builtin-name prefix whose results expose resolved stack settings to
/// mini-C programs (tuned_stripe_count, tuned_stripe_size_kib, ...).
inline constexpr const char* kTunedPrefix = "tuned_";

/// Verdict of the replay-eligibility gate, with enough detail for
/// DriveResult to explain *why* a program fell back to interpretation.
struct InvarianceReport {
  /// The op stream may change across configurations: replay is unsound.
  bool dependent = true;
  /// Human-readable justification of the verdict (first tainted site,
  /// analysis failure, ...). Never empty after analyze_invariance.
  std::string reason;
  /// The verdict is the conservative fallback, not a proof.
  bool unanalyzable = false;
  /// Op-emitting call sites with tainted arguments or tainted control.
  int tainted_sites = 0;
};

/// Runs the taint gate and bumps the `replay.gate.*` metrics:
/// invariant / dependent / unanalyzable. Never throws.
InvarianceReport analyze_invariance(const minic::Program& program);

/// True when `program`'s op stream may observe a `tuned_*` builtin and a
/// recorded trace must not be reused. Shorthand for
/// `analyze_invariance(program).dependent`.
bool settings_dependent(const minic::Program& program);

}  // namespace tunio::replay

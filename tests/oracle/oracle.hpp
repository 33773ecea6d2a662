// Differential oracles for the static-analysis stack.
//
// Production discovery marks with the dataflow slicer alone, and the
// replay gate decides with settings-taint alone. The coarser analyses
// they replaced stay here, linked only by tests and benches, as oracles
// the production answers are checked against:
//
//   * `mark_kept` — the name-based marker: keeps every statement that
//     defines a variable whose name is a dependent anywhere in its
//     function. The slicer's kept set must be a subset of it, with the
//     same interpreter-observable I/O.
//   * `slicer_dependent` — the slicer's replay verdict: a tuned_* reader
//     survives the backward slice from the op-emitting call sites. The
//     taint gate may only admit more programs than this verdict, never
//     fewer; programs it admits that this verdict rejects are the ones
//     taint "recovers" for the replay fast path.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "minic/ast.hpp"

namespace tunio::oracle {

/// Ids of all statements the name-based marker keeps to preserve the
/// program's I/O (calls with one of `io_prefixes`, transitively through
/// user functions).
std::set<int> mark_kept(const minic::Program& program,
                        const std::vector<std::string>& io_prefixes);

/// True when a statement reading a tuned_* builtin survives the backward
/// slice from the op-emitting builtins (h5*, fprintf_log, compute,
/// mpi_barrier). A program the slicer rejects counts as dependent.
bool slicer_dependent(const minic::Program& program);

}  // namespace tunio::oracle

// Backward program slicer from I/O call sites — the marking engine
// behind Application I/O Discovery (§III-B).
//
// Where a name-based marker (kept as a test oracle) keeps *every* statement defining a
// variable whose name is a dependent anywhere in the function, the slicer
// follows actual def-use chains on the control-flow graph: a definition
// is kept only when it may *reach* a kept use. The result is always a
// subset of the legacy marking (verified by differential tests) with
// identical interpreter-observable I/O:
//
//   seed     statements whose own expressions call an I/O-prefixed
//            builtin or a (transitively) I/O-performing user function;
//   data     every use in a kept statement pulls in its reaching
//            definitions (worklist to fixpoint);
//   control  every kept statement pulls in its structural ancestors
//            (enclosing loops/branches/blocks), whose conditions then
//            pull their own data dependencies; a kept for-loop keeps its
//            init/update header machinery;
//   scope    every name a kept statement touches keeps its in-scope
//            declaration (the interpreter rejects assignments to
//            undeclared variables);
//   calls    user functions invoked from kept statements become live;
//            live functions keep their return statements (control flow
//            out of a surviving function is preserved).
#pragma once

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "minic/ast.hpp"

namespace tunio::analysis {

struct SliceResult {
  /// Ids of statements that must be kept to preserve the program's I/O.
  std::set<int> kept;
  /// User functions that (transitively) perform I/O.
  std::unordered_set<std::string> io_functions;
  /// Functions surviving the slice: main plus everything reachable from
  /// kept statements.
  std::unordered_set<std::string> live_functions;
};

/// Slices `program` backward from every I/O call site. Throws
/// Error/SourceError when the program cannot be analyzed (no `main`, or
/// a statement the CFG builder does not know); discovery then fails with
/// the same error.
SliceResult slice_io(const minic::Program& program,
                     const std::vector<std::string>& io_prefixes);

}  // namespace tunio::analysis

#include "oracle/oracle.hpp"

#include <set>
#include <string>
#include <vector>

#include "analysis/slicer.hpp"

namespace tunio::oracle {
namespace {

/// Builtins that emit trace ops.
const std::vector<std::string> kOpEmittingPrefixes = {
    "h5", "fprintf_log", "compute", "mpi_barrier"};

bool has_tuned_call(const minic::Expr& expr) {
  if (expr.kind == minic::ExprKind::kCall &&
      expr.text.rfind("tuned_", 0) == 0) {
    return true;
  }
  for (const minic::ExprPtr& child : expr.children) {
    if (child && has_tuned_call(*child)) return true;
  }
  return false;
}

/// Ids of statements whose own expressions (value or condition) read a
/// tuned_* builtin. Header statements of a `for` (init/update) have their
/// own ids and are visited as children.
void collect_tuned_stmts(const minic::Stmt& stmt, std::set<int>& out) {
  if ((stmt.value && has_tuned_call(*stmt.value)) ||
      (stmt.cond && has_tuned_call(*stmt.cond))) {
    out.insert(stmt.id);
  }
  if (stmt.init) collect_tuned_stmts(*stmt.init, out);
  if (stmt.update) collect_tuned_stmts(*stmt.update, out);
  if (stmt.body) collect_tuned_stmts(*stmt.body, out);
  if (stmt.else_body) collect_tuned_stmts(*stmt.else_body, out);
  for (const minic::StmtPtr& child : stmt.statements) {
    collect_tuned_stmts(*child, out);
  }
}

}  // namespace

bool slicer_dependent(const minic::Program& program) {
  try {
    std::set<int> tuned_readers;
    for (const minic::Function& fn : program.functions) {
      if (fn.body) collect_tuned_stmts(*fn.body, tuned_readers);
    }
    if (tuned_readers.empty()) return false;
    const analysis::SliceResult slice =
        analysis::slice_io(program, kOpEmittingPrefixes);
    for (const int id : tuned_readers) {
      if (slice.kept.count(id) > 0) return true;
    }
    return false;
  } catch (...) {
    return true;
  }
}

}  // namespace tunio::oracle

#include "replay/invariance.hpp"

#include <sstream>
#include <string>

#include "analysis/cost_model.hpp"
#include "obs/metrics.hpp"

namespace tunio::replay {
namespace {

bool has_tuned_call(const minic::Expr& expr) {
  if (expr.kind == minic::ExprKind::kCall &&
      expr.text.rfind(kTunedPrefix, 0) == 0) {
    return true;
  }
  for (const minic::ExprPtr& child : expr.children) {
    if (child && has_tuned_call(*child)) return true;
  }
  return false;
}

/// True when a statement's own expressions (value or condition), or any
/// statement nested in it, read a tuned_* builtin. Header statements of
/// a `for` (init/update) are visited as children.
bool reads_tuned(const minic::Stmt& stmt) {
  if ((stmt.value && has_tuned_call(*stmt.value)) ||
      (stmt.cond && has_tuned_call(*stmt.cond))) {
    return true;
  }
  for (const minic::StmtPtr* child :
       {&stmt.init, &stmt.update, &stmt.body, &stmt.else_body}) {
    if (*child && reads_tuned(**child)) return true;
  }
  for (const minic::StmtPtr& child : stmt.statements) {
    if (reads_tuned(*child)) return true;
  }
  return false;
}

bool any_tuned_read(const minic::Program& program) {
  for (const minic::Function& fn : program.functions) {
    if (fn.body && reads_tuned(*fn.body)) return true;
  }
  return false;
}

void count(const char* metric) {
  obs::MetricsRegistry::global().counter(metric).add(1);
}

}  // namespace

InvarianceReport analyze_invariance(const minic::Program& program) {
  InvarianceReport report;

  // Fast path: no tuned_* read anywhere — trivially invariant, so skip
  // the solver entirely.
  if (!any_tuned_read(program)) {
    report.dependent = false;
    report.reason = "no tuned_* reads";
    count("replay.gate.invariant");
    return report;
  }

  const analysis::ProgramCost cost = analysis::predict_cost(program);
  if (!cost.analyzable) {
    report.dependent = true;
    report.unanalyzable = true;
    report.reason = "static analysis failed: " + cost.failure;
    count("replay.gate.unanalyzable");
    count("replay.gate.dependent");
    return report;
  }

  const analysis::SiteCost* first_tainted = nullptr;
  for (const analysis::SiteCost& site : cost.sites) {
    if (site.tainted) {
      ++report.tainted_sites;
      if (first_tainted == nullptr) first_tainted = &site;
    }
  }

  if (first_tainted != nullptr) {
    std::ostringstream reason;
    reason << "tuned value reaches " << first_tainted->callee << " at line "
           << first_tainted->line;
    if (report.tainted_sites > 1) {
      reason << " (+" << report.tainted_sites - 1 << " more sites)";
    }
    report.dependent = true;
    report.reason = reason.str();
  } else if (cost.tainted_control_exit) {
    report.dependent = true;
    report.reason = "program exit is control-dependent on tuned values";
  } else {
    report.dependent = false;
    report.reason = "tuned reads never reach op-emitting calls";
  }

  count(report.dependent ? "replay.gate.dependent" : "replay.gate.invariant");
  return report;
}

bool settings_dependent(const minic::Program& program) {
  return analyze_invariance(program).dependent;
}

}  // namespace tunio::replay

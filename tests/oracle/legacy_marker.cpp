#include "oracle/oracle.hpp"

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "minic/ast.hpp"

namespace tunio::oracle {

using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;
using minic::StmtPtr;

namespace {

bool has_prefix(const std::string& name,
                const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Flat index over all statements of a program.
struct StmtInfo {
  Stmt* stmt = nullptr;
  Stmt* parent = nullptr;          ///< enclosing structural statement
  const Function* function = nullptr;
};

class Marker {
 public:
  Marker(Program& program, const std::vector<std::string>& io_prefixes)
      : program_(program), io_prefixes_(io_prefixes) {
    index_program();
    compute_io_functions();
  }

  std::set<int> run() {
    // Seed: statements containing I/O calls.
    for (auto& [id, info] : stmts_) {
      bool contains_io = false;
      for_each_expr(*info.stmt, [&](const Expr& e) {
        if (e.kind == ExprKind::kCall &&
            (has_prefix(e.text, io_prefixes_) || io_functions_.count(e.text))) {
          contains_io = true;
        }
      });
      if (contains_io) mark(id);
    }

    // Fixpoint: dependents, contextual parents, live-function returns,
    // and callee retention trigger further marking.
    bool changed = true;
    while (changed) {
      changed = false;
      // Backward slice: any statement defining a dependent variable in
      // the same function is kept, and its RHS variables become
      // dependents in turn.
      for (auto& [id, info] : stmts_) {
        if (kept_.count(id)) continue;
        const std::string defined = defined_var(*info.stmt);
        if (defined.empty()) continue;
        auto fn_deps = dependents_.find(info.function);
        if (fn_deps == dependents_.end()) continue;
        if (fn_deps->second.count(defined)) {
          mark(id);
          changed = true;
        }
      }
      // Live functions keep their return statements (control flow out of
      // a surviving function is preserved); dead helpers keep nothing.
      for (auto& [id, info] : stmts_) {
        if (kept_.count(id) || info.stmt->kind != StmtKind::kReturn) continue;
        if (live_functions().count(info.function->name)) {
          mark(id);
          changed = true;
        }
      }
    }
    return kept_;
  }

  /// Functions that must survive reconstruction: main, plus every
  /// function called from a kept statement (transitively, via fixpoint).
  std::unordered_set<std::string> live_functions() const {
    std::unordered_set<std::string> live{"main"};
    for (const auto& [id, info] : stmts_) {
      if (kept_.count(id) == 0) continue;
      for_each_expr(*info.stmt, [&](const Expr& e) {
        if (e.kind == ExprKind::kCall && program_.find(e.text) != nullptr) {
          live.insert(e.text);
        }
      });
    }
    return live;
  }

 private:
  /// The variable a statement defines (assignment target / declaration).
  static std::string defined_var(const Stmt& stmt) {
    if (stmt.kind == StmtKind::kDecl || stmt.kind == StmtKind::kAssign) {
      return stmt.name;
    }
    return {};
  }

  template <typename Fn>
  static void walk_exprs(const Expr& expr, Fn&& fn) {
    fn(expr);
    for (const auto& child : expr.children) walk_exprs(*child, fn);
  }

  /// Applies `fn` to every expression directly owned by `stmt` (not
  /// descending into child statements).
  template <typename Fn>
  static void for_each_expr(const Stmt& stmt, Fn&& fn) {
    if (stmt.value) walk_exprs(*stmt.value, fn);
    if (stmt.cond) walk_exprs(*stmt.cond, fn);
    // for-header sub-statements belong to the header line.
    if (stmt.init && stmt.init->value) walk_exprs(*stmt.init->value, fn);
    if (stmt.update && stmt.update->value) walk_exprs(*stmt.update->value, fn);
  }

  void index_stmt(Stmt& stmt, Stmt* parent, const Function* fn) {
    stmts_[stmt.id] = StmtInfo{&stmt, parent, fn};
    if (stmt.init) index_stmt(*stmt.init, &stmt, fn);
    if (stmt.update) index_stmt(*stmt.update, &stmt, fn);
    if (stmt.body) index_stmt(*stmt.body, &stmt, fn);
    if (stmt.else_body) index_stmt(*stmt.else_body, &stmt, fn);
    for (StmtPtr& child : stmt.statements) index_stmt(*child, &stmt, fn);
  }

  void index_program() {
    for (Function& fn : program_.functions) {
      index_stmt(*fn.body, nullptr, &fn);
    }
  }

  /// A user function is an I/O function when its body (transitively)
  /// contains an I/O-prefixed call.
  void compute_io_functions() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Function& fn : program_.functions) {
        if (io_functions_.count(fn.name)) continue;
        bool contains = false;
        for (auto& [id, info] : stmts_) {
          if (info.function != &fn) continue;
          for_each_expr(*info.stmt, [&](const Expr& e) {
            if (e.kind == ExprKind::kCall &&
                (has_prefix(e.text, io_prefixes_) ||
                 io_functions_.count(e.text))) {
              contains = true;
            }
          });
          if (contains) break;
        }
        if (contains) {
          io_functions_.insert(fn.name);
          changed = true;
        }
      }
    }
  }

  /// Marks a statement kept: record its dependents, then mark its
  /// contextual parents ("the marking loop will continue until it
  /// reaches the source code's top-level").
  void mark(int id) {
    if (kept_.count(id)) return;
    kept_.insert(id);
    const StmtInfo& info = stmts_.at(id);
    Stmt& stmt = *info.stmt;

    // Dependents of this statement: every variable its expressions use.
    auto& deps = dependents_[info.function];
    for_each_expr(stmt, [&](const Expr& e) {
      if (e.kind == ExprKind::kVar) deps.insert(e.text);
    });

    // A kept for-loop keeps its header machinery (init/update).
    if (stmt.init) mark(stmt.init->id);
    if (stmt.update) mark(stmt.update->id);

    // Contextual parent: the structural statement enclosing this one.
    if (info.parent != nullptr) mark(info.parent->id);
  }

  Program& program_;
  const std::vector<std::string>& io_prefixes_;
  std::map<int, StmtInfo> stmts_;
  std::unordered_set<std::string> io_functions_;
  /// Per-function dependent-variable sets.
  std::unordered_map<const Function*, std::unordered_set<std::string>>
      dependents_;
  std::set<int> kept_;
};

}  // namespace

std::set<int> mark_kept(const Program& program,
                        const std::vector<std::string>& io_prefixes) {
  // Marking never mutates; clone to satisfy the Marker's non-const index.
  Program copy = minic::clone(program);
  return Marker(copy, io_prefixes).run();
}

}  // namespace tunio::oracle

//===- portfolio/SolverStack.h - One worker's full solver stack -------------===//
///
/// \file
/// The rebuildable per-worker solver stack shared by every batch front end:
/// `BatchSolver`'s loop, the `src/dist` worker processes, and
/// (shape-wise) `sbd-server`'s resident stack. Members are constructed in
/// declaration order, so the references wired through the constructors are
/// valid; the struct is non-movable and lives behind a unique_ptr — a
/// "recycle" is building a fresh one (hash-consing needs stable node ids,
/// so arenas only ever grow; see DESIGN.md §7).
///
/// One arena policy: the batch front ends build a fresh stack for every
/// query, which bounds each query's memory and keeps its state budget
/// independent of earlier queries. Only session front ends keep a stack
/// alive across queries. Neither choice can change a result: operand order
/// is structural (RegexManager::canonLess), so prints, cache keys, verdicts
/// and witnesses do not depend on what an arena interned before.
///
/// `solveOnStack` is the one query execution path all of them share: parse
/// on the stack's arena, route through the analyzer-driven portfolio, and
/// revalidate Sat witnesses through the classical Brzozowski matcher
/// (RegexSolver::matchesWord). Keeping it single-sourced is what makes
/// "1-process and N-process runs produce byte-identical verdict streams"
/// (DESIGN.md §16) a structural property rather than a test-enforced
/// accident.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_PORTFOLIO_SOLVERSTACK_H
#define SBD_PORTFOLIO_SOLVERSTACK_H

#include "portfolio/BatchSolver.h"
#include "portfolio/Portfolio.h"

namespace sbd {
namespace portfolio {

/// One worker's solver stack: arena, transition arena, derivative engine,
/// solver, and the portfolio front end sharing them.
struct SolverStack {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver S{E};
  PortfolioSolver P{S};

  SolverStack() = default;
  SolverStack(const SolverStack &) = delete;
  SolverStack &operator=(const SolverStack &) = delete;

  /// Interning + memo counters accumulated in this stack so far.
  CacheStats stats() const {
    CacheStats Out;
    Out += M.stats();
    Out += T.stats();
    Out += E.stats();
    return Out;
  }
};

/// Solves one query on the given stack. Sat witnesses are revalidated
/// through the classical Brzozowski matcher (RegexSolver::matchesWord); a
/// failed revalidation is downgraded to Unknown rather than shipping an
/// invalid witness.
// The bool is ignored; it is kept so existing callers (perfbench) compile.
BatchResult solveOnStack(SolverStack &W, const BatchQuery &Q, bool);

} // namespace portfolio
} // namespace sbd

#endif // SBD_PORTFOLIO_SOLVERSTACK_H

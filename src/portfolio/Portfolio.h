//===- portfolio/Portfolio.h - Analyzer-driven engine selection -------------===//
///
/// \file
/// The solver-portfolio layer (DESIGN.md §14): every query is routed to the
/// engine the pre-solve static analysis predicts is cheapest, replacing the
/// ad-hoc "always the derivative engine" choice. The router is a pure
/// function of the `RegexFeatures` record, so routing is deterministic,
/// unit-testable, and auditable — the decision and its reason are recorded
/// on SolveStats next to the actual cost.
///
/// This library sits *above* `sbd_solver`, `sbd_baselines`, and
/// `sbd_automata` in the layering: the derivative solver cannot construct
/// the baseline engines itself (they link against it), so the portfolio is
/// the one place allowed to instantiate engines directly — enforced by
/// `scripts/lint_sbd.py` (engine-construction-outside-portfolio).
///
/// Routing is conservative by design: the alternative engine is tried only
/// when the features say it is clearly profitable, and any non-answer
/// (Unknown, Unsupported) falls back to the derivative engine, so the
/// portfolio's verdicts match-or-beat the derivative engine's by
/// construction.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_PORTFOLIO_PORTFOLIO_H
#define SBD_PORTFOLIO_PORTFOLIO_H

#include "analysis/RegexAnalyzer.h"
#include "baselines/AntimirovSolver.h"
#include "cache/VerdictCache.h"
#include "solver/RegexSolver.h"

namespace sbd {
namespace portfolio {

/// The router's verdict for one query.
struct RouteDecision {
  /// Engine to try first; non-answers fall back to the derivative engine.
  SolveEngine Engine = SolveEngine::DerivBfs;
  /// Stable snake_case tag explaining the choice (diagnostics, sbd-analyze).
  const char *Reason = "default_derivative";
};

/// Pure routing function: features → engine (DESIGN.md §14 routing table).
/// `Opts` participates because a DFS-strategy request pins the derivative
/// engine (only it implements the strategy knob).
RouteDecision planRoute(const analysis::RegexFeatures &F,
                        const SolveOptions &Opts);

/// Analyzer-routed front end over a RegexSolver plus lazily-used baseline
/// engines sharing its arena. Drop-in for RegexSolver::checkSat /
/// checkMembership; BatchSolver and SmtSolver route through this.
class PortfolioSolver {
public:
  explicit PortfolioSolver(RegexSolver &Sol)
      : S(Sol), M(Sol.regexManager()), Anti(M) {}

  /// Routed satisfiability check. Verdicts (and witness lengths — every
  /// engine used here searches breadth-first) are independent of routing.
  SolveResult checkSat(Re R, const SolveOptions &Opts = {});

  /// Conjunction of membership literals, folded to one ERE exactly like
  /// RegexSolver::checkMembership, then routed.
  SolveResult checkMembership(const std::vector<MembershipLiteral> &Literals,
                              const SolveOptions &Opts = {});

  /// The wrapped derivative solver (shared arena, witness check, analyzer).
  RegexSolver &solver() { return S; }

  /// Attaches (or detaches, with nullptr) a cross-query verdict cache.
  /// Not owned; the cache may outlive this solver and be shared across
  /// solver stacks — its keys are canonical prints, not arena pointers.
  /// When attached, checkSat probes it before routing and memoizes every
  /// definite verdict. Sat hits are revalidated through the reference
  /// matcher; a failed revalidation is a hard error
  /// (StopReason::CacheRevalidationFailed), never a silent re-solve.
  void setVerdictCache(cache::VerdictCache *C) { Cache = C; }

  /// The attached verdict cache, or nullptr.
  cache::VerdictCache *verdictCache() { return Cache; }

private:
  RegexSolver &S;
  RegexManager &M;
  AntimirovSolver Anti;
  cache::VerdictCache *Cache = nullptr;
};

} // namespace portfolio
} // namespace sbd

#endif // SBD_PORTFOLIO_PORTFOLIO_H

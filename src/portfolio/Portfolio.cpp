//===- portfolio/Portfolio.cpp - Analyzer-driven engine selection -----------===//

#include "portfolio/Portfolio.h"

#include "support/Stopwatch.h"

using namespace sbd;
using namespace sbd::portfolio;

// Routing thresholds (DESIGN.md §14). Antimirov's partial-derivative BFS
// wins on small positive iteration-only patterns — at most ♯(R)+1 NFA
// states, no DNF transformation — but its per-query closure rebuild loses
// to the derivative engine's memoized δdnf as patterns grow, so the gate
// is deliberately tight (tuned on bench_smt_corpus).
namespace {
constexpr uint32_t AntimirovMaxDag = 48;
constexpr uint32_t AntimirovMaxPreds = 16;
constexpr uint64_t AntimirovMaxBlowup = 16;
} // namespace

RouteDecision portfolio::planRoute(const analysis::RegexFeatures &F,
                                   const SolveOptions &Opts) {
  RouteDecision D;
  // Only the derivative engine implements the DFS strategy knob; honoring
  // the caller's search order outranks any routing win.
  if (Opts.Strategy == SearchStrategy::Dfs) {
    D.Engine = SolveEngine::DerivDfs;
    D.Reason = "dfs_strategy_pinned";
    return D;
  }
  if (F.Class == analysis::ReClass::Adversarial) {
    // Derivative engine under the admission cap: it degrades gracefully
    // (budgeted Unknown) where the eager constructions blow up first.
    D.Reason = "adversarial_capped";
    return D;
  }
  if (F.Class == analysis::ReClass::KleeneOnly && F.DagSize <= AntimirovMaxDag &&
      F.DistinctPreds <= AntimirovMaxPreds &&
      F.CounterBlowup <= AntimirovMaxBlowup) {
    D.Engine = SolveEngine::Antimirov;
    D.Reason = "small_positive_iteration";
    return D;
  }
  // Literal/Sparse queries are near-free on the derivative engine;
  // Boolean/counter-heavy ones are
  // outside the baselines' efficient fragment. BrzMinterm and the eager
  // DFA constructions are dominated on every class (see DESIGN.md §14) and
  // are never auto-selected.
  return D;
}

SolveResult PortfolioSolver::checkSat(Re R, const SolveOptions &Opts) {
  // One clock for the whole call, so TotalUs holds everything the
  // portfolio did: the cache probe, its own analysis, routing, and any
  // Antimirov attempt that ended without an answer.
  Stopwatch Timer;
  auto finish = [&Timer](SolveResult &Out) {
    Out.TimeUs = Timer.elapsedUs();
    Out.Stats.TotalUs = Out.TimeUs;
  };
  // Cross-query verdict cache (DESIGN.md §15). The probe runs before the
  // analyzer: a hit skips analysis, routing, and solving entirely. An
  // empty key means the canonical print exceeded the key cap — skip.
  std::string CacheKey;
  if (Cache) {
    CacheKey = cache::canonicalVerdictKey(M, R, Opts);
    if (std::optional<cache::CachedVerdict> Hit = Cache->lookup(CacheKey)) {
      SolveResult Out;
      Out.Stats.Engine = SolveEngine::VerdictCache;
      if (Hit->Sat) {
        // The cache is untrusted: replay the witness through the reference
        // matcher before serving. A rejection is a hard error — the entry
        // (or the matcher) is wrong, and re-solving would paper over it.
        if (!S.matchesWord(R, Hit->Witness)) {
          Cache->noteRevalidationFailure(CacheKey);
          Out.Status = SolveStatus::Unknown;
          Out.Stop = StopReason::CacheRevalidationFailed;
          Out.Note = "cached witness failed reference-matcher revalidation";
          finish(Out);
          return Out;
        }
        Out.Status = SolveStatus::Sat;
        Out.Witness = Hit->Witness;
      } else {
        Out.Status = SolveStatus::Unsat;
      }
      finish(Out);
      return Out;
    }
  }

  Stopwatch AnalysisTimer;
  const analysis::RegexFeatures Feat = S.analyzer().analyze(R);
  const int64_t AnalysisUs = AnalysisTimer.elapsedUs();
  RouteDecision D = planRoute(Feat, Opts);

  SolveResult Out;
  bool Solved = false;
  if (D.Engine == SolveEngine::Antimirov) {
    SolveResult R1 = Anti.solve(R, Opts);
    if (R1.Status == SolveStatus::Sat || R1.Status == SolveStatus::Unsat) {
      R1.Stats.PredictedClass = analysis::reClassName(Feat.Class);
      R1.Stats.RiskScore = Feat.Risk;
      R1.Stats.PredictedStates = analysis::predictedStateBound(Feat);
      R1.Stats.AnalysisUs = AnalysisUs;
      Out = std::move(R1);
      Solved = true;
    }
    // Non-answer (budget, timeout, fragment): the derivative engine is the
    // completeness backstop, so routing can never lose a verdict.
  }
  if (!Solved) {
    Out = S.checkSat(R, Opts);
    Out.Stats.AnalysisUs += AnalysisUs;
  }
  finish(Out);
  // The search residual is re-taken over the whole call, as RegexSolver
  // takes it over its own: wall time less the δ and δdnf phases.
  const int64_t Attributed = Out.Stats.DeriveUs + Out.Stats.DnfUs;
  Out.Stats.SearchUs =
      Out.Stats.TotalUs > Attributed ? Out.Stats.TotalUs - Attributed : 0;

  // Memoize definite verdicts only: Unknown/Unsupported depend on budgets
  // and fragment coverage, not on the language, so they must never be
  // served cross-query.
  if (Cache && !CacheKey.empty() &&
      (Out.Status == SolveStatus::Sat || Out.Status == SolveStatus::Unsat)) {
    cache::CachedVerdict V;
    V.Sat = Out.isSat();
    V.Witness = Out.Witness;
    Cache->insert(CacheKey, std::move(V));
  }
  return Out;
}

SolveResult
PortfolioSolver::checkMembership(const std::vector<MembershipLiteral> &Literals,
                                 const SolveOptions &Opts) {
  // in(s,r1) ∧ ¬in(s,r2) ∧ …  ⇒  in(s, r1 & ~r2 & …)   (Section 2)
  std::vector<Re> Parts;
  Parts.reserve(Literals.size());
  for (const MembershipLiteral &L : Literals)
    Parts.push_back(L.Positive ? L.Regex : M.complement(L.Regex));
  return checkSat(M.interList(std::move(Parts)), Opts);
}

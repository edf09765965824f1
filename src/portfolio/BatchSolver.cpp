//===- portfolio/BatchSolver.cpp - Batch solving front end ------------------===//

#include "portfolio/BatchSolver.h"

#include "re/RegexParser.h"
#include "portfolio/SolverStack.h"
#include "support/Exposition.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <memory>

using namespace sbd;
using portfolio::SolverStack;

BatchResult portfolio::solveOnStack(SolverStack &W, const BatchQuery &Q,
                                    bool) {
  BatchResult Out;
  obs::ScopedSpan Span("query", "batch");
  Span.arg("pattern", Q.Pattern);
  Stopwatch ParseTimer;
  RegexParseResult Parsed = parseRegex(W.M, Q.Pattern);
  int64_t ParseUs = ParseTimer.elapsedUs();
  SBD_OBS_ADD(ParseTimeUs, ParseUs);
  if (!Parsed.Ok) {
    Out.ParseError = Parsed.Error;
    Out.Result.Status = SolveStatus::Unsupported;
    Out.Result.Stop = StopReason::ParseError;
    Out.Result.Note = "parse error: " + Parsed.Error;
    Out.Result.Stats.ParseUs = ParseUs;
    Out.Result.Stats.TotalUs = ParseUs;
    return Out;
  }
  Out.ParseOk = true;
  Out.Result = W.P.checkSat(Parsed.Value, Q.Opts);
  // Sat witnesses are revalidated through the classical Brzozowski matcher,
  // which shares no δdnf or automaton state with the search. This is a pure
  // guard: verdicts and witnesses are unchanged on the (only observed)
  // passing path, and a divergence is downgraded to Unknown rather than
  // shipping an invalid witness.
  if (Out.Result.isSat()) {
#if SBD_OBS
    const obs::MetricShard ScanBefore = obs::tlsShard();
#endif
    bool Valid = W.S.matchesWord(Parsed.Value, Out.Result.Witness);
#if SBD_OBS
    // Validation scans run after checkSat returned, so attribute them to
    // the query here (same thread-local-shard diff the solver uses).
    Out.Result.Stats.ScanUs += static_cast<int64_t>(
        obs::tlsShard().since(ScanBefore).get(obs::Counter::ScanTimeUs));
#endif
    if (!Valid) {
      Out.Result.Status = SolveStatus::Unknown;
      Out.Result.Note = "witness failed classical-matcher revalidation";
    }
  }
  Out.Result.Stats.ParseUs = ParseUs;
  Out.Result.Stats.TotalUs += ParseUs;
  Out.Result.TimeUs += ParseUs;
  return Out;
}

std::vector<BatchResult>
BatchSolver::solveAll(const std::vector<BatchQuery> &Queries) {
  std::vector<BatchResult> Results;
  Results.reserve(Queries.size());
  Stats.reset();
  for (const BatchQuery &Q : Queries) {
    auto W = std::make_unique<SolverStack>();
    Results.push_back(solveOnStack(*W, Q, false));
    Stats += W->stats();
    // Safe point for SIGUSR1-driven exposition dumps (one relaxed load
    // when no dump is pending).
    obs::pollExposition();
  }
  return Results;
}

//===- portfolio/BatchSolver.cpp - Parallel batch solving front end ---------===//

#include "portfolio/BatchSolver.h"

#include "re/RegexParser.h"
#include "portfolio/SolverStack.h"
#include "support/Exposition.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

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

namespace {

/// Buckets every result's SolveStats by the engine that produced it.
std::vector<EnginePhaseRow>
bucketByEngine(const std::vector<BatchResult> &Results) {
  constexpr size_t NumEngines = 6; // SolveEngine enumerator count
  EnginePhaseRow Rows[NumEngines];
  for (size_t I = 0; I != NumEngines; ++I)
    Rows[I].Engine = static_cast<SolveEngine>(I);
  for (const BatchResult &R : Results) {
    if (!R.ParseOk)
      continue;
    EnginePhaseRow &Row = Rows[static_cast<size_t>(R.Result.Stats.Engine)];
    ++Row.Queries;
    Row.Stats += R.Result.Stats;
  }
  std::vector<EnginePhaseRow> Out;
  for (size_t I = 0; I != NumEngines; ++I)
    if (Rows[I].Queries)
      Out.push_back(Rows[I]);
  return Out;
}

} // namespace

std::vector<BatchResult>
BatchSolver::solveAll(const std::vector<BatchQuery> &Queries) {
  std::vector<BatchResult> Results(Queries.size());
  Stats.reset();
  Phases.clear();

  // The work loop every worker runs: claim the next unprocessed query index
  // and solve it on a fresh stack. Results are written to disjoint slots,
  // so no synchronization beyond the claim counter is needed.
  std::atomic<size_t> Next{0};
  std::mutex StatsMutex;
  auto workLoop = [&] {
    CacheStats Local;
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed);
         I < Queries.size();
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      auto W = std::make_unique<SolverStack>();
      Results[I] = solveOnStack(*W, Queries[I], false);
      Local += W->stats();
      // Safe point for SIGUSR1-driven exposition dumps (one relaxed load
      // when no dump is pending).
      obs::pollExposition();
    }
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Stats += Local;
  };

  unsigned Threads = Opts.NumThreads;
  if (Threads <= 1 || Queries.size() <= 1) {
    workLoop();
    Phases = bucketByEngine(Results);
    return Results;
  }
  if (Threads > Queries.size())
    Threads = static_cast<unsigned>(Queries.size());

  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Pool.emplace_back(workLoop);
  for (std::thread &Th : Pool)
    Th.join();
  Phases = bucketByEngine(Results);
  return Results;
}

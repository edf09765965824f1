//===- tests/BatchSolverTest.cpp - Parallel batch front-end tests -----------===//
///
/// \file
/// The properties the serving front end must guarantee:
///   - results come back in input order, each answering its own query;
///   - verdicts and (BFS) witness lengths are identical across thread
///     counts — parallelism must never change an answer;
///   - per-query budgets (deadline / state cap) apply to the single query
///     that carries them;
///   - parse failures are reported per query, not thrown batch-wide.
///
//===----------------------------------------------------------------------===//

#include "portfolio/BatchSolver.h"

#include "core/Derivatives.h"
#include "portfolio/SolverStack.h"
#include "re/RegexParser.h"
#include "solver/RegexSolver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace sbd;

namespace {

/// A mixed corpus of ~50 constraints: password/date-style intersections,
/// Boolean combinations with complement, loop arithmetic, and blowup-shaped
/// unsat instances — the forms the paper's evaluation exercises.
std::vector<std::string> mixedCorpus() {
  std::vector<std::string> Patterns = {
      // Handwritten sat/unsat anchors.
      "(.*\\d.*)&(.*[a-z].*)&.{4,12}",
      "(.*\\d.*)&(.*[a-z].*)&(.*[A-Z].*)&.{8,16}&~(.*\\s.*)",
      "\\d{4}-[a-zA-Z]{3}-\\d{2}&(2019.*|2020.*)",
      "(ab)+&(ba)+",
      "a*&b*&~()",
      "(a|b){3}&~(.*aa.*)&~(.*bb.*)",
      "~(.*ab.*)&.*a.*&.*b.*",
      "a{2,5}b{1,3}&a{3,}b*",
      "(abc|abd|abe)&ab[de]",
      "~(~(a*))&a{2,}",
  };
  // Blowup family (.*a.{k})&(.*b.{k}): sat for every k.
  for (int K = 1; K <= 8; ++K)
    Patterns.push_back("(.*a.{" + std::to_string(K) + "})&(.*b.{" +
                       std::to_string(K) + "})");
  // Conflicting window vs literal length: unsat when the literal is longer.
  for (int L = 1; L <= 8; ++L) {
    std::string Lit(static_cast<size_t>(L + 4), 'x');
    Patterns.push_back(Lit + "&.{0," + std::to_string(L) + "}");
  }
  // Loop-arithmetic families: a^{2i} ∩ a^{odd} alternating sat/unsat.
  for (int I = 1; I <= 8; ++I) {
    Patterns.push_back("(aa){" + std::to_string(I) + "}&a{" +
                       std::to_string(2 * I) + "}");
    Patterns.push_back("(aa){" + std::to_string(I) + "}&a{" +
                       std::to_string(2 * I + 1) + "}");
  }
  // Subset-style complements: prefix language vs its own refinement.
  for (int I = 1; I <= 8; ++I) {
    std::string Cls = "[a-" + std::string(1, static_cast<char>('a' + I)) + "]";
    Patterns.push_back(Cls + "*&~(" + Cls + "{0,3})");
  }
  return Patterns;
}

std::vector<BatchQuery> toQueries(const std::vector<std::string> &Patterns) {
  std::vector<BatchQuery> Queries;
  Queries.reserve(Patterns.size());
  for (const std::string &P : Patterns)
    Queries.push_back({P, SolveOptions{}}); // BFS, no budget: exact verdicts
  return Queries;
}

TEST(BatchSolverTest, MatchesSequentialReferenceSolver) {
  std::vector<std::string> Patterns = mixedCorpus();
  ASSERT_GE(Patterns.size(), 50u);

  BatchSolver Batch;
  std::vector<BatchResult> Results = Batch.solveAll(toQueries(Patterns));
  ASSERT_EQ(Results.size(), Patterns.size());

  for (size_t I = 0; I != Patterns.size(); ++I) {
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    RegexSolver S(E);
    Re R = parseRegexOrDie(M, Patterns[I]);
    SolveResult Ref = S.checkSat(R);
    ASSERT_TRUE(Results[I].ParseOk) << Patterns[I];
    EXPECT_EQ(Results[I].Result.Status, Ref.Status) << Patterns[I];
    if (Ref.isSat())
      EXPECT_EQ(Results[I].Result.Witness.size(), Ref.Witness.size())
          << Patterns[I];
  }
}

TEST(BatchSolverTest, PerQueryBudgetsApplyIndividually) {
  // Query 1 carries a one-state budget and must come back Unknown; its
  // neighbors carry no budget and must still be decided exactly.
  std::vector<BatchQuery> Queries;
  Queries.push_back({"(ab)+&(ba)+", SolveOptions{}});
  SolveOptions Tiny;
  Tiny.MaxStates = 1;
  Queries.push_back({"(.*a.{6})&(.*b.{6})&(.*c.{6})", Tiny});
  Queries.push_back({"a{3}", SolveOptions{}});

  BatchSolver Batch;
  std::vector<BatchResult> Results = Batch.solveAll(Queries);

  EXPECT_EQ(Results[0].Result.Status, SolveStatus::Unsat);
  EXPECT_EQ(Results[1].Result.Status, SolveStatus::Unknown);
  EXPECT_EQ(Results[2].Result.Status, SolveStatus::Sat);
  EXPECT_EQ(Results[2].Result.Witness.size(), 3u);
}

TEST(BatchSolverTest, ParseFailuresAreLocalToTheirQuery) {
  std::vector<BatchQuery> Queries;
  Queries.push_back({"a{3}", SolveOptions{}});
  Queries.push_back({"(unclosed", SolveOptions{}});
  Queries.push_back({"b{2}", SolveOptions{}});

  BatchSolver Batch;
  std::vector<BatchResult> Results = Batch.solveAll(Queries);
  EXPECT_TRUE(Results[0].ParseOk);
  EXPECT_FALSE(Results[1].ParseOk);
  EXPECT_FALSE(Results[1].ParseError.empty());
  EXPECT_EQ(Results[1].Result.Status, SolveStatus::Unsupported);
  EXPECT_TRUE(Results[2].ParseOk);
  EXPECT_EQ(Results[2].Result.Status, SolveStatus::Sat);
}

TEST(BatchSolverTest, AggregatesCacheStats) {
  BatchSolver Batch;
  (void)Batch.solveAll(toQueries(mixedCorpus()));
#if SBD_OBS
  EXPECT_GT(Batch.stats().InternMisses, 0u);
  EXPECT_GT(Batch.stats().Lookups, 0u);
#endif
}

TEST(BatchSolverTest, EmptyBatch) {
  BatchSolver Batch;
  EXPECT_TRUE(Batch.solveAll({}).empty());
}

TEST(BatchSolverTest, ParseErrorsCarryStopReason) {
  BatchSolver Batch;
  std::vector<BatchResult> Results =
      Batch.solveAll({{"(unclosed", SolveOptions{}}});
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].Result.Stop, StopReason::ParseError);
}

#if SBD_OBS
TEST(BatchSolverTest, RegistryAggregationDeterministicAcrossRuns) {
  // Every query runs on a fresh stack, so the same batch run twice must
  // add identical work counters to the registry. Time-valued counters are
  // excluded — wall clock is never deterministic.
  std::vector<BatchQuery> Queries = toQueries(mixedCorpus());
  auto runAndDelta = [&] {
    const obs::MetricShard Before = obs::MetricsRegistry::global().snapshot();
    BatchSolver Batch;
    (void)Batch.solveAll(Queries);
    return obs::MetricsRegistry::global().snapshot().since(Before);
  };
  obs::MetricShard S1 = runAndDelta();
  obs::MetricShard S2 = runAndDelta();
  for (size_t I = 0; I != obs::NumCounters; ++I) {
    std::string Name = obs::counterName(static_cast<obs::Counter>(I));
    if (Name.size() >= 3 && Name.compare(Name.size() - 3, 3, "_us") == 0)
      continue;
    EXPECT_EQ(S1.C[I], S2.C[I]) << Name;
  }
  EXPECT_GT(S1.get(obs::Counter::DerivativeCalls), 0u);
  EXPECT_EQ(S1.get(obs::Counter::QueriesSolved), Queries.size());
}

TEST(BatchSolverTest, PerQueryStatsArePopulated) {
  BatchSolver Batch;
  std::vector<BatchResult> Results =
      Batch.solveAll(toQueries({"a{3}b*", "(ab)+&(ba)+"}));
  ASSERT_EQ(Results.size(), 2u);
  for (const BatchResult &R : Results) {
    // Derivative counters only tick on derivative-engine routes; the
    // portfolio may send small positive patterns to Antimirov.
    if (R.Result.Stats.Engine == SolveEngine::DerivBfs ||
        R.Result.Stats.Engine == SolveEngine::DerivDfs)
      EXPECT_GT(R.Result.Stats.DerivativeCalls, 0u);
    EXPECT_GT(R.Result.Stats.SolverSteps, 0u);
    EXPECT_GE(R.Result.Stats.ParseUs, 0);
    EXPECT_GE(R.Result.Stats.TotalUs, 0);
  }
}

TEST(BatchSolverTest, CorpusBatchHitsTheAnalysisMemo) {
  // Portfolio routing analyzes each query and the solver it routes to asks
  // again for the same term: the second request must come from the memo.
  obs::MetricsRegistry::global().reset();
  BatchSolver Batch;
  (void)Batch.solveAll(toQueries(mixedCorpus()));
  obs::MetricShard Snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(Snap.get(obs::Counter::AnalysisNodesVisited), 0u);
  EXPECT_GT(Snap.get(obs::Counter::AnalysisCacheHits), 0u);
  obs::MetricsRegistry::global().reset();
}

TEST(BatchSolverTest, RevalidationBuildsNoMatcherState) {
  // Sat witnesses are revalidated by the classical Brzozowski matcher, not
  // by an alphabet-compressed lazy DFA: the check must tick D_a(R) calls
  // and build no matcher state at all.
  const obs::MetricShard Before = obs::tlsShard();
  for (const char *Pattern :
       {"(.*\\d.*)&(.*[a-z].*)&.{4,12}",
        "\\d{4}-[a-zA-Z]{3}-\\d{2}&(2019.*|2020.*)",
        "(a|b){3}&~(.*aa.*)&~(.*bb.*)"}) {
    portfolio::SolverStack W;
    BatchResult R =
        portfolio::solveOnStack(W, {Pattern, SolveOptions{}}, false);
    ASSERT_TRUE(R.Result.isSat()) << Pattern << ": " << R.Result.Note;
    ASSERT_FALSE(R.Result.Witness.empty()) << Pattern;
  }
  const obs::MetricShard Diff = obs::tlsShard().since(Before);
  EXPECT_GT(Diff.get(obs::Counter::BrzozowskiCalls), 0u);
  EXPECT_EQ(Diff.get(obs::Counter::DfaStatesBuilt), 0u);
  EXPECT_EQ(Diff.get(obs::Counter::AlphabetMinterms), 0u);
}
#endif // SBD_OBS

} // namespace

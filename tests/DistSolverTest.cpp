//===- tests/DistSolverTest.cpp - Coordinator/worker scheduling tests -------===//
///
/// \file
/// End-to-end tests for the `src/dist` multi-process layer (DESIGN.md
/// §16): verdict-stream determinism across worker counts (and against the
/// in-process BatchSolver), steal correctness under a deliberately skewed
/// shard hash, worker-crash requeue-once recovery, and respawn after
/// total worker loss. These fork real worker processes over socketpairs —
/// the same machinery sbd-dist and the CI consistency gate run.
///
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "dist/Protocol.h"
#include "portfolio/BatchSolver.h"

#include "gtest/gtest.h"

using namespace sbd;
using namespace sbd::dist;

namespace {

std::vector<BatchQuery> mixedCorpus() {
  std::vector<std::string> Patterns = {
      "a",
      "ab|cd",
      "(a|b)*c",
      "[a-f]{2,4}",
      "(ab)*&~(abab)",
      "~(a*)&b*",
      "x[0-9]+y",
      "(foo|bar|baz)qux",
      "a*b*c*d*",
      "([a-z]&[^m-p])*",
      "((a|b)(c|d)){3}",
      "not(a valid pattern", // parse error rides along deliberately
      "p(q|r)*s",
      "zz*&z{2,}",
      "[0-9]{3}-[0-9]{4}",
      "(a&b)|(c&d)",
  };
  std::vector<BatchQuery> Out;
  for (const std::string &P : Patterns) {
    BatchQuery Q;
    Q.Pattern = P;
    Q.Opts.MaxStates = 4096;
    Out.push_back(std::move(Q));
  }
  return Out;
}

std::string streamOf(const std::vector<BatchResult> &Results) {
  std::string Out;
  for (size_t I = 0; I != Results.size(); ++I) {
    Out += renderVerdictLine(I, Results[I]);
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Determinism across worker counts
//===----------------------------------------------------------------------===//

TEST(DistSolverTest, VerdictStreamIndependentOfWorkerCount) {
  std::vector<BatchQuery> Queries = mixedCorpus();

  DistOptions One;
  One.NumWorkers = 1;
  DistSolver S1(One);
  std::string Stream1 = streamOf(S1.solveAll(Queries));

  DistOptions Four;
  Four.NumWorkers = 4;
  Four.NumShards = 8; // shards ≠ workers must not matter either
  DistSolver S4(Four);
  std::string Stream4 = streamOf(S4.solveAll(Queries));

  EXPECT_EQ(Stream1, Stream4);
  EXPECT_EQ(S1.stats().Lost, 0u);
  EXPECT_EQ(S4.stats().Lost, 0u);
  EXPECT_EQ(S4.stats().Dispatched, Queries.size());
}

TEST(DistSolverTest, MatchesInProcessBatchSolver) {
  // The dist layer must be a transparent transport: its verdict stream is
  // byte-identical to the in-process BatchSolver's.
  std::vector<BatchQuery> Queries = mixedCorpus();

  BatchSolver Local;
  std::string LocalStream = streamOf(Local.solveAll(Queries));

  DistOptions DOpts;
  DOpts.NumWorkers = 3;
  DistSolver Dist(DOpts);
  std::string DistStream = streamOf(Dist.solveAll(Queries));

  EXPECT_EQ(LocalStream, DistStream);
}

TEST(DistSolverTest, ShardRoutingIsDeterministic) {
  // Equal queries hash to equal shards: two runs over a shuffled-free
  // corpus dispatch identically (same steal-free distribution), which is
  // observable as a repeatable stats profile with stealing disabled by
  // saturation (every worker busy enough not to run dry is not
  // guaranteed, so compare verdict streams — the invariant that matters).
  std::vector<BatchQuery> Queries = mixedCorpus();
  DistOptions Opts;
  Opts.NumWorkers = 2;
  DistSolver A(Opts);
  DistSolver B(Opts);
  EXPECT_EQ(streamOf(A.solveAll(Queries)), streamOf(B.solveAll(Queries)));
}

//===----------------------------------------------------------------------===//
// Work stealing
//===----------------------------------------------------------------------===//

TEST(DistSolverTest, IdleWorkersStealFromSkewedShards) {
  // Every query is textually identical → one canonical key → one shard →
  // one home worker. With 3 workers the other two can only make progress
  // by stealing.
  std::vector<BatchQuery> Queries;
  for (int I = 0; I != 24; ++I) {
    BatchQuery Q;
    Q.Pattern = "(a|b)*abb";
    Q.Opts.MaxStates = 4096;
    Queries.push_back(std::move(Q));
  }
  DistOptions Opts;
  Opts.NumWorkers = 3;
  Opts.MaxInFlightPerWorker = 2;
  DistSolver S(Opts);
  std::vector<BatchResult> Results = S.solveAll(Queries);

  EXPECT_GT(S.stats().Steals, 0u);
  EXPECT_EQ(S.stats().Lost, 0u);
  ASSERT_EQ(Results.size(), Queries.size());
  // Every stolen solve must still produce the canonical verdict.
  std::string First = renderVerdictLine(0, Results[0]);
  for (size_t I = 1; I != Results.size(); ++I) {
    std::string Line = renderVerdictLine(I, Results[I]);
    EXPECT_EQ(Line.substr(Line.find(' ')), First.substr(First.find(' ')));
  }
}

//===----------------------------------------------------------------------===//
// Crash recovery
//===----------------------------------------------------------------------===//

TEST(DistSolverTest, WorkerCrashRequeuesInFlightOnce) {
  std::vector<BatchQuery> Queries = mixedCorpus();

  DistOptions Clean;
  Clean.NumWorkers = 2;
  DistSolver Ref(Clean);
  std::string Want = streamOf(Ref.solveAll(Queries));

  DistOptions Crashy = Clean;
  Crashy.CrashWorkerIndex = 0;
  Crashy.CrashAtRequest = 2; // die mid-stream with work queued + in flight
  DistSolver S(Crashy);
  std::string Got = streamOf(S.solveAll(Queries));

  EXPECT_EQ(S.stats().WorkerCrashes, 1u);
  EXPECT_GE(S.stats().Requeues, 1u);
  EXPECT_EQ(S.stats().Lost, 0u) << "requeue must recover every verdict";
  EXPECT_EQ(Want, Got) << "crash recovery must not change the stream";
}

TEST(DistSolverTest, TotalWorkerLossRespawns) {
  std::vector<BatchQuery> Queries = mixedCorpus();

  DistOptions Opts;
  Opts.NumWorkers = 1; // the only worker dies → coordinator must respawn
  Opts.CrashWorkerIndex = 0;
  Opts.CrashAtRequest = 3;
  DistSolver S(Opts);
  std::string Got = streamOf(S.solveAll(Queries));

  DistOptions Clean;
  Clean.NumWorkers = 1;
  DistSolver Ref(Clean);
  EXPECT_EQ(streamOf(Ref.solveAll(Queries)), Got);
  EXPECT_EQ(S.stats().WorkerCrashes, 1u);
  EXPECT_EQ(S.stats().Respawns, 1u);
  EXPECT_EQ(S.stats().Lost, 0u);
}

//===----------------------------------------------------------------------===//
// Streaming submission
//===----------------------------------------------------------------------===//

TEST(DistSolverTest, StreamingSubmitMatchesSolveAll) {
  std::vector<BatchQuery> Queries = mixedCorpus();

  DistOptions Opts;
  Opts.NumWorkers = 2;
  Opts.MaxInFlightPerWorker = 1; // tight admission: submit must backpressure
  DistSolver Batch(Opts);
  std::string Want = streamOf(Batch.solveAll(Queries));

  DistSolver Stream(Opts);
  for (size_t I = 0; I != Queries.size(); ++I)
    EXPECT_EQ(Stream.submit(Queries[I]), I);
  EXPECT_EQ(streamOf(Stream.drain()), Want);
}

} // namespace

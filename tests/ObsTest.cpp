//===- tests/ObsTest.cpp - Observability layer tests ------------------------===//
///
/// \file
/// The guarantees of the sbd::obs subsystem (support/Metrics.h,
/// support/Trace.h):
///   - the counter registry merges per-thread shards correctly, including
///     shards of threads that have already exited;
///   - tracing on vs off never changes a verdict or witness;
///   - the exported documents (Chrome trace, stats JSON) are valid JSON
///     with the advertised structure — validated with the in-tree parser.
///
//===----------------------------------------------------------------------===//

#include "support/Exposition.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include "re/RegexParser.h"
#include "solver/RegexSolver.h"
#include "solver/SlowQueryLog.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace sbd;

namespace {

/// Solves one pattern on a fresh solver stack.
SolveResult solvePattern(const std::string &Pattern) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexSolver S(E);
  return S.checkSat(parseRegexOrDie(M, Pattern));
}

TEST(MetricsTest, CounterNamesAreUniqueAndStable) {
  std::set<std::string> Names;
  for (size_t I = 0; I != obs::NumCounters; ++I) {
    std::string Name = obs::counterName(static_cast<obs::Counter>(I));
    EXPECT_NE(Name, "?");
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate name " << Name;
  }
}

TEST(MetricsTest, ShardArithmetic) {
  obs::MetricShard A, B;
  A.add(obs::Counter::DerivativeCalls, 5);
  A.add(obs::Counter::MemoHits, 2);
  B.add(obs::Counter::DerivativeCalls, 3);
  B += A;
  EXPECT_EQ(B.get(obs::Counter::DerivativeCalls), 8u);
  EXPECT_EQ(B.get(obs::Counter::MemoHits), 2u);
  obs::MetricShard D = B.since(A);
  EXPECT_EQ(D.get(obs::Counter::DerivativeCalls), 3u);
  EXPECT_EQ(D.get(obs::Counter::MemoHits), 0u);
  B.reset();
  EXPECT_EQ(B.get(obs::Counter::DerivativeCalls), 0u);
}

TEST(MetricsTest, ShardJsonParses) {
  obs::MetricShard S;
  S.add(obs::Counter::DnfCalls, 7);
  JsonParseResult R = parseJson(S.json());
  ASSERT_TRUE(R.Ok) << R.Error;
  const JsonValue *V = R.Value.get("dnf_calls");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asNumber(), 7.0);
  // Every counter must appear under its registered name.
  for (size_t I = 0; I != obs::NumCounters; ++I)
    EXPECT_NE(R.Value.get(obs::counterName(static_cast<obs::Counter>(I))),
              nullptr);
}

TEST(MetricsTest, SolveStatsJsonParses) {
  SolveStats St;
  St.DerivativeCalls = 11;
  St.DeriveUs = 42;
  JsonParseResult R = parseJson(St.json());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.get("derivative_calls")->asNumber(), 11.0);
  EXPECT_EQ(R.Value.get("derive_us")->asNumber(), 42.0);
  for (const char *Key :
       {"engine", "dnf_calls", "memo_hits", "arena_nodes", "peak_frontier",
        "parse_us", "minterm_us", "dnf_us", "scan_us", "search_us",
        "total_us"})
    EXPECT_NE(R.Value.get(Key), nullptr) << Key;
  EXPECT_EQ(R.Value.get("engine")->asString(), "deriv_bfs");
}

#if SBD_OBS

TEST(MetricsTest, RegistrySeesSolverWork) {
  obs::MetricsRegistry::global().reset();
  SolveResult R = solvePattern("(ab)+&(ba)+");
  EXPECT_TRUE(R.isUnsat());
  obs::MetricShard Snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(Snap.get(obs::Counter::DerivativeCalls), 0u);
  EXPECT_GT(Snap.get(obs::Counter::DnfCalls), 0u);
  EXPECT_EQ(Snap.get(obs::Counter::QueriesSolved), 1u);
  // The per-query stats and the registry must agree on this single query.
  EXPECT_EQ(Snap.get(obs::Counter::DerivativeCalls), R.Stats.DerivativeCalls);
  EXPECT_EQ(Snap.get(obs::Counter::SolverSteps), R.Stats.SolverSteps);
  obs::MetricsRegistry::global().reset();
  EXPECT_EQ(obs::MetricsRegistry::global()
                .snapshot()
                .get(obs::Counter::DerivativeCalls),
            0u);
}

TEST(MetricsTest, OtherThreadsBumpsAreAbsentFromThisThreadsSnapshot) {
  // Counters are per thread: an embedder's second solving thread counts
  // into its own shard, never into this one.
  const obs::MetricShard Before = obs::MetricsRegistry::global().snapshot();
  std::thread Other([] { obs::tlsShard().add(obs::Counter::Lookups, 123); });
  Other.join();
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().since(Before).get(
                obs::Counter::Lookups),
            0u);
}

#endif // SBD_OBS

TEST(TracerTest, OnOffVerdictParity) {
  const std::vector<std::string> Patterns = {
      "(.*\\d.*)&(.*[a-z].*)&.{4,12}",
      "(ab)+&(ba)+",
      "\\d{4}-[a-zA-Z]{3}-\\d{2}&(2019.*|2020.*)",
      "~(.*ab.*)&.*a.*&.*b.*",
  };
  std::vector<SolveResult> Off, On;
  obs::Tracer::global().stop();
  for (const std::string &P : Patterns)
    Off.push_back(solvePattern(P));
  obs::Tracer::global().start();
  for (const std::string &P : Patterns)
    On.push_back(solvePattern(P));
  obs::Tracer::global().stop();
  for (size_t I = 0; I != Patterns.size(); ++I) {
    EXPECT_EQ(Off[I].Status, On[I].Status) << Patterns[I];
    EXPECT_EQ(Off[I].Witness, On[I].Witness) << Patterns[I];
    EXPECT_EQ(Off[I].StatesExplored, On[I].StatesExplored) << Patterns[I];
  }
#if SBD_OBS
  EXPECT_GT(obs::Tracer::global().eventCount(), 0u);
#endif
  obs::Tracer::global().clear();
}

#if SBD_OBS

TEST(TracerTest, ChromeTraceJsonIsValid) {
  obs::Tracer::global().start();
  {
    obs::ScopedSpan Outer("outer", "test");
    Outer.arg("pattern", std::string("a\"b\\c")); // needs escaping
    Outer.arg("count", uint64_t(3));
    obs::ScopedSpan Inner("inner", "test");
  }
  (void)solvePattern("a{3}b*");
  obs::Tracer::global().stop();
  std::string Doc = obs::Tracer::global().chromeTraceJson();
  obs::Tracer::global().clear();

  JsonParseResult R = parseJson(Doc);
  ASSERT_TRUE(R.Ok) << R.Error << "\n" << Doc;
  const JsonValue *Events = R.Value.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_GE(Events->asArray().size(), 3u); // outer, inner, checkSat
  bool SawOuter = false;
  for (const JsonValue &E : Events->asArray()) {
    ASSERT_NE(E.get("name"), nullptr);
    ASSERT_NE(E.get("ph"), nullptr);
    EXPECT_EQ(E.get("ph")->asString(), "X");
    ASSERT_NE(E.get("ts"), nullptr);
    ASSERT_NE(E.get("dur"), nullptr);
    ASSERT_NE(E.get("tid"), nullptr);
    if (E.get("name")->asString() == "outer") {
      SawOuter = true;
      const JsonValue *Args = E.get("args");
      ASSERT_NE(Args, nullptr);
      EXPECT_EQ(Args->get("pattern")->asString(), "a\"b\\c");
      EXPECT_EQ(Args->get("count")->asNumber(), 3.0);
    }
  }
  EXPECT_TRUE(SawOuter);
}

TEST(TracerTest, SpansDeadWhenTracerOff) {
  obs::Tracer::global().stop();
  obs::Tracer::global().clear();
  {
    obs::ScopedSpan Span("dead", "test");
    Span.arg("ignored", uint64_t(1));
  }
  EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
}

TEST(TracerTest, PerThreadBufferBoundsMemoryAndCountsDrops) {
  obs::Tracer &T = obs::Tracer::global();
  const size_t OldCap = T.maxEventsPerThread();
  obs::MetricsRegistry::global().reset();
  T.setMaxEventsPerThread(16);
  T.start();
  for (int I = 0; I != 100; ++I)
    obs::ScopedSpan Span("flood", "test");
  T.stop();
  EXPECT_LE(T.eventCount(), 16u);
  // Drop-newest: the earliest window of the run is the one that is kept.
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().get(
                obs::Counter::TraceEventsDropped),
            100u - 16u);
  T.clear();
  T.setMaxEventsPerThread(OldCap);
  obs::MetricsRegistry::global().reset();
}

#endif // SBD_OBS

TEST(HistogramTest, BucketRuleIsPureIntegerArithmetic) {
  // Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(obs::histBucket(0), 0u);
  EXPECT_EQ(obs::histBucket(1), 1u);
  EXPECT_EQ(obs::histBucket(2), 2u);
  EXPECT_EQ(obs::histBucket(3), 2u);
  EXPECT_EQ(obs::histBucket(4), 3u);
  EXPECT_EQ(obs::histBucket(1023), 10u);
  EXPECT_EQ(obs::histBucket(1024), 11u);
  EXPECT_EQ(obs::histBucket(UINT64_MAX), obs::NumHistBuckets - 1);
  EXPECT_EQ(obs::histBucketUpperBound(0), 0u);
  EXPECT_EQ(obs::histBucketUpperBound(1), 1u);
  EXPECT_EQ(obs::histBucketUpperBound(2), 3u);
  EXPECT_EQ(obs::histBucketUpperBound(11), 2047u);
  EXPECT_EQ(obs::histBucketUpperBound(63), UINT64_MAX);
}

TEST(HistogramTest, RecordingAndPercentilesAreDeterministic) {
  obs::HistShard::Data D;
  for (uint64_t V : {0, 1, 2, 3, 5, 9, 100, 100, 1000, 60000})
    D.record(V);
  EXPECT_EQ(D.Count, 10u);
  EXPECT_EQ(D.Sum, 61220u);
  EXPECT_EQ(D.Min, 0u);
  EXPECT_EQ(D.Max, 60000u);
  EXPECT_EQ(D.Buckets[0], 1u); // 0
  EXPECT_EQ(D.Buckets[1], 1u); // 1
  EXPECT_EQ(D.Buckets[2], 2u); // 2, 3
  EXPECT_EQ(D.Buckets[3], 1u); // 5
  EXPECT_EQ(D.Buckets[4], 1u); // 9
  EXPECT_EQ(D.Buckets[7], 2u); // 100 x2
  EXPECT_EQ(D.Buckets[10], 1u); // 1000
  EXPECT_EQ(D.Buckets[16], 1u); // 60000
  // Percentile = upper bound of the bucket holding the ceil(q*N)-th sample,
  // tightened to the observed Max: p50 -> 5th sample (value 5, bucket 3,
  // ub 7); p90 -> 9th sample (1000, bucket 10, ub 1023); p99 -> 10th
  // sample's bucket ub 65535 tightens to Max 60000.
  EXPECT_EQ(obs::histPercentile(D, 50), 7u);
  EXPECT_EQ(obs::histPercentile(D, 90), 1023u);
  EXPECT_EQ(obs::histPercentile(D, 99), 60000u);
  EXPECT_EQ(obs::histPercentile(obs::HistShard::Data(), 50), 0u);
}

TEST(HistogramTest, ShardJsonParses) {
  obs::HistShard S;
  S.record(obs::Hist::SolveLatencyUs, 7);
  S.record(obs::Hist::SolveLatencyUs, 130);
  JsonParseResult R = parseJson(S.json());
  ASSERT_TRUE(R.Ok) << R.Error;
  for (size_t I = 0; I != obs::NumHistograms; ++I)
    ASSERT_NE(R.Value.get(obs::histName(static_cast<obs::Hist>(I))), nullptr);
  const JsonValue *Lat = R.Value.get("solve_latency_us");
  EXPECT_EQ(Lat->get("count")->asNumber(), 2.0);
  EXPECT_EQ(Lat->get("sum")->asNumber(), 137.0);
  EXPECT_EQ(Lat->get("min")->asNumber(), 7.0);
  EXPECT_EQ(Lat->get("max")->asNumber(), 130.0);
  for (const char *Key : {"p50", "p90", "p99", "buckets"})
    EXPECT_NE(Lat->get(Key), nullptr) << Key;
  ASSERT_TRUE(Lat->get("buckets")->isArray());
  EXPECT_EQ(Lat->get("buckets")->asArray().size(), 2u); // sparse: two buckets
}

#if SBD_OBS

TEST(HistogramTest, SolverRecordsLatencyAndSizeDistributions) {
  obs::HistogramRegistry::global().reset();
  (void)solvePattern("(.*\\d.*)&(.*[a-z].*)&.{4,12}");
  obs::HistShard Snap = obs::HistogramRegistry::global().snapshot();
  EXPECT_EQ(Snap.count(obs::Hist::SolveLatencyUs), 1u);
  EXPECT_EQ(Snap.count(obs::Hist::SolveArenaNodes), 1u);
  EXPECT_GT(Snap.count(obs::Hist::DnfExpansionArcs), 0u);
  EXPECT_GT(Snap.data(obs::Hist::SolveArenaNodes).Max, 0u);
  obs::HistogramRegistry::global().reset();
}

#else // !SBD_OBS

TEST(HistogramTest, RecordingCompiledOutUnderObsOff) {
  obs::HistogramRegistry::global().reset();
  SBD_OBS_HIST(SolveLatencyUs, 42); // must be a no-op
  (void)solvePattern("(ab)+&(ba)+");
  obs::HistShard Snap = obs::HistogramRegistry::global().snapshot();
  for (size_t I = 0; I != obs::NumHistograms; ++I)
    EXPECT_EQ(Snap.count(static_cast<obs::Hist>(I)), 0u);
}

#endif // SBD_OBS

#if SBD_OBS

TEST(SlowQueryLogTest, CapturesReplayableArtifactPastThreshold) {
  obs::SlowQueryLog &Log = obs::SlowQueryLog::global();
  (void)Log.drain();
  obs::SlowQueryOptions Opts;
  Opts.LatencyThresholdUs = 0; // capture everything
  Log.configure(Opts);
  EXPECT_TRUE(Log.armed());

  SolveResult R = solvePattern("(.*\\d.*)&(.*[a-z].*)&.{4,12}");
  EXPECT_TRUE(R.isSat());

  std::vector<obs::SlowQueryArtifact> Got = Log.drain();
  Log.configure(obs::SlowQueryOptions()); // disarm for later tests
  EXPECT_FALSE(Log.armed());
  ASSERT_EQ(Got.size(), 1u);
  const obs::SlowQueryArtifact &A = Got[0];
  EXPECT_NE(A.Pattern.find("re.inter"), std::string::npos);
  EXPECT_NE(A.Script.find("(check-sat)"), std::string::npos);
  EXPECT_EQ(A.Status, "sat");
  EXPECT_EQ(A.Strategy, "bfs");
  EXPECT_FALSE(A.Frontier.empty());
  EXPECT_FALSE(A.TopCounters.empty());
  // Time-class counters are excluded from the top-k list by contract.
  for (const auto &KV : A.TopCounters)
    EXPECT_EQ(KV.first.find("_time_us"), std::string::npos) << KV.first;

  // The JSONL record parses and carries the full sbd-explain schema.
  JsonParseResult P = parseJson(A.json());
  ASSERT_TRUE(P.Ok) << P.Error;
  for (const char *Key :
       {"pattern", "script", "strategy", "timeout_ms", "max_states", "status",
        "stop_reason", "total_us", "states", "frontier_stride",
        "frontier_trace", "top_counters", "stats"})
    EXPECT_NE(P.Value.get(Key), nullptr) << Key;
  EXPECT_TRUE(P.Value.get("frontier_trace")->isArray());
  EXPECT_TRUE(P.Value.get("stats")->isObject());
}

TEST(SlowQueryLogTest, RingDropsOldestPastCapacity) {
  obs::SlowQueryLog &Log = obs::SlowQueryLog::global();
  (void)Log.drain();
  obs::SlowQueryOptions Opts;
  Opts.LatencyThresholdUs = 0;
  Opts.Capacity = 2;
  Log.configure(Opts);
  for (int I = 0; I != 4; ++I) {
    obs::SlowQueryArtifact A;
    A.TotalUs = I;
    Log.capture(std::move(A));
  }
  EXPECT_EQ(Log.size(), 2u);
  std::vector<obs::SlowQueryArtifact> Got = Log.drain();
  Log.configure(obs::SlowQueryOptions());
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].TotalUs, 2);
  EXPECT_EQ(Got[1].TotalUs, 3);
}

TEST(SlowQueryLogTest, NodeThresholdGatesCapture) {
  obs::SlowQueryLog &Log = obs::SlowQueryLog::global();
  obs::SlowQueryOptions Opts;
  Opts.NodeThreshold = 1000000; // far above any toy query
  Log.configure(Opts);
  EXPECT_TRUE(Log.armed());
  EXPECT_FALSE(Log.shouldCapture(/*TotalUs=*/50000, /*ArenaNodes=*/10));
  EXPECT_TRUE(Log.shouldCapture(/*TotalUs=*/0, /*ArenaNodes=*/2000000));
  Log.configure(obs::SlowQueryOptions());
  EXPECT_FALSE(Log.armed());
  EXPECT_FALSE(Log.shouldCapture(1000000, 1000000));
}

#endif // SBD_OBS

TEST(ExpositionTest, PrometheusTextHasCountersAndHistogramSeries) {
  obs::MetricsRegistry::global().reset();
  obs::HistogramRegistry::global().reset();
  (void)solvePattern("a{3}b*");
  std::string Text = obs::prometheusText();
  EXPECT_NE(Text.find("# TYPE sbd_queries_solved counter"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE sbd_solve_latency_us histogram"),
            std::string::npos);
#if SBD_OBS
  EXPECT_NE(Text.find("sbd_queries_solved 1"), std::string::npos);
  EXPECT_NE(Text.find("sbd_solve_latency_us_count 1"), std::string::npos);
  EXPECT_NE(Text.find("_bucket{le=\"+Inf\"}"), std::string::npos);
#else
  EXPECT_NE(Text.find("sbd_queries_solved 0"), std::string::npos);
  EXPECT_NE(Text.find("sbd_solve_latency_us_count 0"), std::string::npos);
#endif
  obs::MetricsRegistry::global().reset();
  obs::HistogramRegistry::global().reset();
}

TEST(ExpositionTest, SnapshotJsonParsesWithBothSections) {
  JsonParseResult R = parseJson(obs::snapshotJson());
  ASSERT_TRUE(R.Ok) << R.Error;
  const JsonValue *Counters = R.Value.get("counters");
  const JsonValue *Hists = R.Value.get("histograms");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Hists, nullptr);
  EXPECT_TRUE(Counters->isObject());
  EXPECT_TRUE(Hists->isObject());
  EXPECT_NE(Counters->get("derivative_calls"), nullptr);
  EXPECT_NE(Hists->get("dnf_expansion_arcs"), nullptr);
}

} // namespace

//===- support/Metrics.h - Unified counter registry (sbd::obs) --------------===//
///
/// \file
/// The counting half of the observability subsystem: the `MetricsRegistry`
/// read API over a per-thread counter shard, plus the per-owner
/// `CacheStats` struct the interning/memo layers bump (moved here from the
/// former support/CacheStats.h, which this header supersedes).
///
/// Design rules:
///
///  - One solving thread per process (DESIGN.md §7); scale-out is worker
///    processes, each with its own counters. The store is one plain
///    `constinit thread_local MetricShard`: hot paths bump it with no
///    atomics, no locks and no registration, and the registry reads and
///    zeroes the calling thread's shard only.
///  - The shard stays `thread_local` rather than a plain global so that an
///    embedder that solves on several threads (one solver stack each) has
///    no data race; each thread then sees only its own counts, and
///    `snapshot()` on one thread does not include the others.
///  - Per-*query* attribution does not go through the registry at all: a
///    solver snapshots the shard on entry and diffs on exit.
///  - Compile with `-DSBD_OBS=0` to strip every counter update and span;
///    the macros expand to nothing and the structs stay as zero-cost
///    shells so call sites need no `#if` guards. The same switch strips
///    the `CacheStats` bumps (`SBD_STATS_INC/ADD`), so one flag disables
///    the whole layer.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_METRICS_H
#define SBD_SUPPORT_METRICS_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#ifndef SBD_OBS
#define SBD_OBS 1
#endif

#if SBD_OBS
#define SBD_STATS_INC(Stats, Field) ((Stats).Field += 1)
#define SBD_STATS_ADD(Stats, Field, N) ((Stats).Field += (N))
#else
#define SBD_STATS_INC(Stats, Field) ((void)0)
#define SBD_STATS_ADD(Stats, Field, N) ((void)0)
#endif

namespace sbd {

namespace obs {

/// Every named counter the registry tracks. Hot code indexes the shard
/// array directly by these ids — adding a counter is adding an enumerator
/// plus its name in counterName().
enum class Counter : uint32_t {
  // Derivative engine.
  DerivativeCalls,     ///< δ(R) invocations (including recursive ones)
  DnfCalls,            ///< δdnf(R) requests (memo hits included)
  BrzozowskiCalls,     ///< classical D_a(R) invocations
  // Transition-regex DNF transformation.
  DnfBranchesExplored, ///< conditional branches recursed into during DNF
  DnfBranchesPruned,   ///< branches skipped because the path condition died
  ArcsEnumerated,      ///< (guard, target) arcs produced by TrManager::arcs
  // Character algebra.
  MintermComputations, ///< computeMinterms() calls
  MintermsProduced,    ///< total minterms returned by those calls
  // Alphabet compression (charset/AlphabetCompressor.h).
  AlphabetMinterms,    ///< minterm classes assigned by AlphabetCompressor
  DfaStatesBuilt,      ///< always 0; kept for perfbench
  // Solver search loop.
  SolverSteps,         ///< states dequeued by RegexSolver::checkSat
  TimeoutChecks,       ///< deadline clock reads in the search loop
  QueriesSolved,       ///< checkSat() calls completed
  // Interning / memoization (folded per query from the owner CacheStats).
  InternHits,
  InternMisses,
  MemoHits,
  MemoMisses,
  ProbeSteps,
  Lookups,
  // Invariant auditor (analysis/Audit.h; counts only under SBD_AUDIT builds).
  AuditNodesChecked,   ///< nodes/interval-lists visited by audit hooks
  AuditViolations,     ///< invariant violations the hooks detected
  // Differential fuzzing subsystem (fuzz/Fuzzer.h).
  FuzzSamples,         ///< (regex, word) samples pushed through the oracle
  FuzzChecks,          ///< individual cross-engine/metamorphic checks run
  FuzzDiscrepancies,   ///< disagreements the oracle detected
  FuzzShrinkSteps,     ///< accepted shrinker reductions
  // Profiling layer (support/Histogram.h, support/Trace.h drop policy,
  // solver/SlowQueryLog.h).
  TraceEventsDropped,  ///< span events dropped by the per-thread buffer cap
  SlowQueriesCaptured, ///< explain artifacts captured by the slow-query log
  SlowQueriesDropped,  ///< artifacts evicted from the bounded capture ring
  // Pre-solve static analysis + portfolio routing (analysis/RegexAnalyzer.h,
  // portfolio/Portfolio.h).
  AnalysisNodesVisited, ///< DAG nodes folded by RegexAnalyzer (memo misses)
  AnalysisCacheHits,    ///< analyze() requests answered from the node memo
  AdmissionFlagged,     ///< Adversarial-class queries capped by admission
  // Cross-query verdict cache (cache/VerdictCache.h, DESIGN.md §15).
  VerdictCacheHits,     ///< queries answered from a cached verdict
  VerdictCacheMisses,   ///< canonical keys probed and not found
  VerdictCacheInserts,  ///< definite verdicts memoized
  VerdictCacheEvictions,///< entries displaced by least-recently-hit eviction
  VerdictCacheRevalidationFailures, ///< cached witnesses the reference
                                    ///< matcher rejected on hit (hard error)
  SessionChecks,        ///< (check-sat) commands served by SmtSession
  // Multi-process batch solving (dist/Coordinator.h, DESIGN.md §16).
  DistDispatched,       ///< requests sent to worker processes
  DistSteals,           ///< requests moved off their home shard's queue
  DistRequeues,         ///< in-flight requests replayed after a worker loss
  DistWorkerCrashes,    ///< worker processes that died with work in flight
  DistTimeouts,         ///< in-flight requests that exceeded RpcTimeoutMs
  // Phase timings, microseconds (counters so they shard/merge like the rest).
  ParseTimeUs,
  MintermTimeUs,
  DeriveTimeUs,
  DnfTimeUs,
  ScanTimeUs,
  SearchTimeUs,
  SolveTimeUs,

  NumCounters ///< sentinel — keep last
};

constexpr size_t NumCounters = static_cast<size_t>(Counter::NumCounters);

/// Stable snake_case name for JSON/statistics output.
const char *counterName(Counter C);

/// One thread's (or one snapshot's) counter values. Plain uint64s — never
/// shared while being written.
struct MetricShard {
  uint64_t C[NumCounters] = {};

  uint64_t get(Counter Id) const { return C[static_cast<size_t>(Id)]; }
  void add(Counter Id, uint64_t N) { C[static_cast<size_t>(Id)] += N; }

  MetricShard &operator+=(const MetricShard &O) {
    for (size_t I = 0; I != NumCounters; ++I)
      C[I] += O.C[I];
    return *this;
  }

  /// Counter-wise `*this - Since` (Since must be an earlier snapshot of the
  /// same monotonically increasing shard).
  MetricShard since(const MetricShard &Earlier) const {
    MetricShard Out;
    for (size_t I = 0; I != NumCounters; ++I)
      Out.C[I] = C[I] - Earlier.C[I];
    return Out;
  }

  void reset() { *this = MetricShard(); }

  /// Flat JSON object: {"derivative_calls": 12, ...}.
  std::string json() const;
};

namespace detail {
/// The calling thread's counters. `constinit` + trivially destructible, so
/// the fast path is a bare TLS access with no init guard.
extern constinit thread_local MetricShard TlsShard;
} // namespace detail

/// The calling thread's shard — the only thing hot paths touch.
inline MetricShard &tlsShard() { return detail::TlsShard; }

/// Read API over the calling thread's shard. Singleton (`global()`).
class MetricsRegistry {
public:
  static MetricsRegistry &global();

  /// Copy of the calling thread's counters.
  MetricShard snapshot() { return tlsShard(); }

  /// Zeroes the calling thread's counters. Call between benchmark runs.
  void reset() { tlsShard().reset(); }

private:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
};

#if SBD_OBS
#define SBD_OBS_INC(CounterId)                                                 \
  (::sbd::obs::tlsShard().add(::sbd::obs::Counter::CounterId, 1))
#define SBD_OBS_ADD(CounterId, N)                                              \
  (::sbd::obs::tlsShard().add(::sbd::obs::Counter::CounterId,                  \
                              static_cast<uint64_t>(N)))
#else
#define SBD_OBS_INC(CounterId) ((void)0)
#define SBD_OBS_ADD(CounterId, N) ((void)0)
#endif

} // namespace obs

/// Hit/miss/probe counters for one interning table or memo cache owner.
/// All counters are plain (non-atomic) — each arena is single-threaded by
/// design (see DESIGN.md §7, "one solving thread per process").
struct CacheStats {
  /// Hash-consing: structurally-equal node re-interned (no allocation).
  uint64_t InternHits = 0;
  /// Hash-consing: fresh node appended to the arena.
  uint64_t InternMisses = 0;
  /// Memoized δ/δdnf/negate/Brzozowski result served from a memo slot.
  uint64_t MemoHits = 0;
  /// Memo slot was empty; the result was computed and recorded.
  uint64_t MemoMisses = 0;
  /// Total open-addressing probe steps across all table lookups.
  uint64_t ProbeSteps = 0;
  /// Number of table lookups (probe-length denominator).
  uint64_t Lookups = 0;

  void reset() { *this = CacheStats(); }

  CacheStats &operator+=(const CacheStats &O) {
    InternHits += O.InternHits;
    InternMisses += O.InternMisses;
    MemoHits += O.MemoHits;
    MemoMisses += O.MemoMisses;
    ProbeSteps += O.ProbeSteps;
    Lookups += O.Lookups;
    return *this;
  }

  /// Folds these counters into a registry shard under the unified names.
  void foldInto(obs::MetricShard &Shard) const {
    Shard.add(obs::Counter::InternHits, InternHits);
    Shard.add(obs::Counter::InternMisses, InternMisses);
    Shard.add(obs::Counter::MemoHits, MemoHits);
    Shard.add(obs::Counter::MemoMisses, MemoMisses);
    Shard.add(obs::Counter::ProbeSteps, ProbeSteps);
    Shard.add(obs::Counter::Lookups, Lookups);
  }

  double internHitRate() const {
    uint64_t Total = InternHits + InternMisses;
    return Total ? static_cast<double>(InternHits) /
                       static_cast<double>(Total)
                 : 0.0;
  }
  double memoHitRate() const {
    uint64_t Total = MemoHits + MemoMisses;
    return Total ? static_cast<double>(MemoHits) / static_cast<double>(Total)
                 : 0.0;
  }
  /// Mean probe steps per lookup (1.0 = every key found in its home slot).
  double avgProbeLength() const {
    return Lookups ? static_cast<double>(ProbeSteps) /
                         static_cast<double>(Lookups)
                   : 0.0;
  }

  /// One-line human-readable rendering for benchmark output.
  std::string summary() const {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "intern %llu/%llu (%.1f%% hit) memo %llu/%llu (%.1f%% hit) "
                  "avg-probe %.2f",
                  static_cast<unsigned long long>(InternHits),
                  static_cast<unsigned long long>(InternHits + InternMisses),
                  internHitRate() * 100.0,
                  static_cast<unsigned long long>(MemoHits),
                  static_cast<unsigned long long>(MemoHits + MemoMisses),
                  memoHitRate() * 100.0, avgProbeLength());
    return Buf;
  }
};

} // namespace sbd

#endif // SBD_SUPPORT_METRICS_H

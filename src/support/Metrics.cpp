//===- support/Metrics.cpp - Unified counter registry (sbd::obs) ------------===//

#include "support/Metrics.h"

#include <mutex>
#include <vector>

using namespace sbd;
using namespace sbd::obs;

const char *sbd::obs::counterName(Counter C) {
  switch (C) {
  case Counter::DerivativeCalls:
    return "derivative_calls";
  case Counter::DnfCalls:
    return "dnf_calls";
  case Counter::BrzozowskiCalls:
    return "brzozowski_calls";
  case Counter::DnfBranchesExplored:
    return "dnf_branches_explored";
  case Counter::DnfBranchesPruned:
    return "dnf_branches_pruned";
  case Counter::ArcsEnumerated:
    return "arcs_enumerated";
  case Counter::MintermComputations:
    return "minterm_computations";
  case Counter::MintermsProduced:
    return "minterms_produced";
  case Counter::AlphabetMinterms:
    return "alphabet_minterms";
  case Counter::DfaStatesBuilt:
    return "dfa_states_built";
  case Counter::DfaEvictions:
    return "dfa_evictions";
  case Counter::SolverSteps:
    return "solver_steps";
  case Counter::TimeoutChecks:
    return "timeout_checks";
  case Counter::QueriesSolved:
    return "queries_solved";
  case Counter::InternHits:
    return "intern_hits";
  case Counter::InternMisses:
    return "intern_misses";
  case Counter::MemoHits:
    return "memo_hits";
  case Counter::MemoMisses:
    return "memo_misses";
  case Counter::ProbeSteps:
    return "probe_steps";
  case Counter::Lookups:
    return "lookups";
  case Counter::AuditNodesChecked:
    return "audit_nodes_checked";
  case Counter::AuditViolations:
    return "audit_violations";
  case Counter::FuzzSamples:
    return "fuzz_samples";
  case Counter::FuzzChecks:
    return "fuzz_checks";
  case Counter::FuzzDiscrepancies:
    return "fuzz_discrepancies";
  case Counter::FuzzShrinkSteps:
    return "fuzz_shrink_steps";
  case Counter::TraceEventsDropped:
    return "trace_events_dropped";
  case Counter::SlowQueriesCaptured:
    return "slow_queries_captured";
  case Counter::SlowQueriesDropped:
    return "slow_queries_dropped";
  case Counter::AnalysisNodesVisited:
    return "analysis_nodes_visited";
  case Counter::AnalysisCacheHits:
    return "analysis_cache_hits";
  case Counter::AdmissionFlagged:
    return "admission_flagged";
  case Counter::VerdictCacheHits:
    return "verdict_cache_hits";
  case Counter::VerdictCacheMisses:
    return "verdict_cache_misses";
  case Counter::VerdictCacheInserts:
    return "verdict_cache_inserts";
  case Counter::VerdictCacheEvictions:
    return "verdict_cache_evictions";
  case Counter::VerdictCacheRevalidationFailures:
    return "verdict_cache_revalidation_failures";
  case Counter::SessionChecks:
    return "session_checks";
  case Counter::DistDispatched:
    return "dist_dispatched";
  case Counter::DistSteals:
    return "dist_steals";
  case Counter::DistRequeues:
    return "dist_requeues";
  case Counter::DistWorkerCrashes:
    return "dist_worker_crashes";
  case Counter::DistTimeouts:
    return "dist_timeouts";
  case Counter::ParseTimeUs:
    return "parse_time_us";
  case Counter::MintermTimeUs:
    return "minterm_time_us";
  case Counter::DeriveTimeUs:
    return "derive_time_us";
  case Counter::DnfTimeUs:
    return "dnf_time_us";
  case Counter::ScanTimeUs:
    return "scan_time_us";
  case Counter::SearchTimeUs:
    return "search_time_us";
  case Counter::SolveTimeUs:
    return "solve_time_us";
  case Counter::NumCounters:
    break;
  }
  return "?";
}

std::string MetricShard::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != NumCounters; ++I) {
    if (I)
      Out += ", ";
    Out += '"';
    Out += counterName(static_cast<Counter>(I));
    Out += "\": ";
    Out += std::to_string(C[I]);
  }
  Out += '}';
  return Out;
}

/// Registry internals: a mutex-guarded list of live per-thread shards plus
/// the folded counters of threads that have exited. The thread_local Holder
/// below unregisters itself on thread exit, so `Live` never dangles.
struct MetricsRegistry::Impl {
  std::mutex Mu;
  std::vector<MetricShard *> Live;
  MetricShard Retired;
};

MetricsRegistry::Impl &MetricsRegistry::impl() {
  // One leaked instance per process: thread-exit hooks may run after main()
  // returns, so the registry must never be destroyed.
  static Impl *I = new Impl();
  return *I;
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry *R = new MetricsRegistry();
  return *R;
}

constinit thread_local MetricShard *sbd::obs::detail::TlsShard = nullptr;

namespace {

/// Dumping ground for counter bumps that happen while (or after) a
/// thread's shard holder is torn down. Trivially destructible, so it
/// outlives every other thread_local; its contents are dropped.
thread_local MetricShard ExitSink;

/// Registers this thread's shard on first use; folds it into the retired
/// sum on thread exit.
struct ShardHolder {
  MetricShard Shard;
  std::mutex *Mu;
  std::vector<MetricShard *> *Live;
  MetricShard *Retired;

  ShardHolder(std::mutex &M, std::vector<MetricShard *> &L, MetricShard &R)
      : Mu(&M), Live(&L), Retired(&R) {
    std::lock_guard<std::mutex> Lock(*Mu);
    Live->push_back(&Shard);
  }

  ~ShardHolder() {
    detail::TlsShard = &ExitSink;
    std::lock_guard<std::mutex> Lock(*Mu);
    *Retired += Shard;
    for (auto It = Live->begin(); It != Live->end(); ++It) {
      if (*It == &Shard) {
        Live->erase(It);
        break;
      }
    }
  }
};

} // namespace

MetricShard &sbd::obs::detail::registerThreadShard() {
  MetricsRegistry::Impl &I = MetricsRegistry::impl();
  thread_local ShardHolder Holder(I.Mu, I.Live, I.Retired);
  TlsShard = &Holder.Shard;
  return Holder.Shard;
}

MetricShard MetricsRegistry::snapshot() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  MetricShard Out = I.Retired;
  for (const MetricShard *S : I.Live)
    Out += *S;
  return Out;
}

void MetricsRegistry::reset() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  I.Retired.reset();
  for (MetricShard *S : I.Live)
    S->reset();
}

//===- support/Metrics.cpp - Unified counter registry (sbd::obs) ------------===//

#include "support/Metrics.h"

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

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry R;
  return R;
}

constinit thread_local MetricShard sbd::obs::detail::TlsShard;

//===- solver/SolverResult.h - Shared solver result types -------------------===//
///
/// \file
/// Result/option types shared by the symbolic-derivative solver and the
/// baseline solvers used in the evaluation harness, including the
/// per-query `SolveStats` block the observability layer populates
/// (see support/Metrics.h and DESIGN.md §8).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SOLVER_SOLVERRESULT_H
#define SBD_SOLVER_SOLVERRESULT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace sbd {

/// Outcome of a satisfiability query.
enum class SolveStatus : uint8_t {
  Sat,         ///< a witness word was found
  Unsat,       ///< the language is provably empty
  Unknown,     ///< budget (time or state) exhausted
  Unsupported, ///< the solver cannot handle the input fragment
};

/// Machine-readable cause of an Unknown/Unsupported verdict. `Note` stays
/// the human-readable companion string.
enum class StopReason : uint8_t {
  None,                ///< ran to completion (Sat/Unsat)
  Timeout,             ///< wall-clock budget exhausted
  StateBudget,         ///< MaxStates distinct regexes explored
  ArenaBudget,         ///< arena/memory budget exhausted
  ParseError,          ///< the input pattern/script failed to parse
  UnsupportedFragment, ///< input outside the supported fragment
  CubeBudget,          ///< implicant enumeration budget exhausted (SMT)
  SubqueryUnknown,     ///< a sub-query gave up, poisoning the verdict (SMT)
  CacheRevalidationFailed, ///< a cached witness failed replay through the
                           ///< reference matcher (hard error, never silent)
};

/// Human-readable stop-reason name (stable, snake_case).
inline const char *stopReasonName(StopReason R) {
  switch (R) {
  case StopReason::None:
    return "none";
  case StopReason::Timeout:
    return "timeout";
  case StopReason::StateBudget:
    return "state_budget";
  case StopReason::ArenaBudget:
    return "arena_budget";
  case StopReason::ParseError:
    return "parse_error";
  case StopReason::UnsupportedFragment:
    return "unsupported_fragment";
  case StopReason::CubeBudget:
    return "cube_budget";
  case StopReason::SubqueryUnknown:
    return "subquery_unknown";
  case StopReason::CacheRevalidationFailed:
    return "cache_revalidation_failed";
  }
  return "?";
}

/// Exploration order for the derivative solver.
enum class SearchStrategy : uint8_t {
  Bfs, ///< breadth-first: shortest witness, larger frontier
  Dfs, ///< depth-first: mimics SMT backtracking search; finds *a* witness
       ///< fast on satisfiable instances with deep models
};

/// Which engine produced a result. Mostly interesting to the differential
/// harnesses (BatchSolver, the fuzz oracle), which aggregate per-engine
/// phase tables from it.
enum class SolveEngine : uint8_t {
  DerivBfs,   ///< symbolic-derivative solver, breadth-first
  DerivDfs,   ///< symbolic-derivative solver, depth-first
  Antimirov,  ///< Antimirov partial-derivative NFA baseline
  BrzMinterm, ///< Brzozowski + explicit minterm baseline
  Eager,      ///< eager product-automaton solver
  VerdictCache, ///< answered from the cross-query verdict cache (no solve)
};

/// Human-readable engine name (stable, snake_case).
inline const char *solveEngineName(SolveEngine E) {
  switch (E) {
  case SolveEngine::DerivBfs:
    return "deriv_bfs";
  case SolveEngine::DerivDfs:
    return "deriv_dfs";
  case SolveEngine::Antimirov:
    return "antimirov";
  case SolveEngine::BrzMinterm:
    return "brz_minterm";
  case SolveEngine::Eager:
    return "eager";
  case SolveEngine::VerdictCache:
    return "verdict_cache";
  }
  return "?";
}

/// Resource budget for one query.
struct SolveOptions {
  /// Wall-clock budget in milliseconds; <= 0 means unlimited.
  int64_t TimeoutMs = 0;
  /// Maximum number of distinct states/regexes to explore; 0 = unlimited.
  size_t MaxStates = 0;
  /// Exploration order (derivative solver only).
  SearchStrategy Strategy = SearchStrategy::Bfs;
  /// Heuristic (the paper's future-work direction): visit arcs whose
  /// target regex is syntactically smaller first — small residues tend to
  /// be closer to ε, steering DFS toward witnesses. Never affects the
  /// verdict, only exploration order.
  bool PreferSimplerArcs = false;
};

/// Per-query attribution of work done while solving: how many derivative
/// expansions, DNF branches, minterm computations, and cache hits the query
/// incurred, and where its wall-clock went. Populated by RegexSolver from
/// the thread-local metric shard (queries never migrate threads); all
/// counters are zero when the library is built with -DSBD_OBS=0.
struct SolveStats {
  uint64_t DerivativeCalls = 0;     ///< δ(R) invocations (incl. recursion)
  uint64_t DnfCalls = 0;            ///< δdnf(R) requests
  uint64_t BrzozowskiCalls = 0;     ///< classical D_a(R) invocations
  uint64_t DnfBranchesExplored = 0; ///< DNF conditional branches recursed
  uint64_t DnfBranchesPruned = 0;   ///< DNF branches with dead path conds
  uint64_t ArcsEnumerated = 0;      ///< (guard, target) arcs produced
  uint64_t MintermComputations = 0; ///< computeMinterms() calls
  uint64_t MintermsProduced = 0;    ///< minterms those calls returned
  uint64_t InternHits = 0;          ///< hash-consing hits (regex + TR)
  uint64_t InternMisses = 0;        ///< fresh nodes interned
  uint64_t MemoHits = 0;            ///< δ/δdnf/negate/Brz memo hits
  uint64_t MemoMisses = 0;          ///< memo misses (result computed)
  uint64_t ArenaNodes = 0;          ///< regex + TR nodes allocated
  uint64_t PeakFrontier = 0;        ///< max BFS/DFS queue length
  uint64_t SolverSteps = 0;         ///< states dequeued by the search loop
  uint64_t TimeoutChecks = 0;       ///< deadline clock reads
  int64_t ParseUs = 0;              ///< pattern/script parse time
  int64_t MintermUs = 0;            ///< time inside computeMinterms(); may
                                    ///< overlap DeriveUs/DnfUs regions
  int64_t DeriveUs = 0;             ///< time inside δ computation
  int64_t DnfUs = 0;                ///< time inside the DNF transformation
  int64_t CacheProbeUs = 0;         ///< always 0; kept for perfbench
  int64_t ScanUs = 0;               ///< witness revalidation (ScanTimeUs)
  int64_t SearchUs = 0;             ///< search-loop time minus the above
  int64_t TotalUs = 0;              ///< wall-clock for the whole query
  /// Engine attribution for per-engine phase tables.
  SolveEngine Engine = SolveEngine::DerivBfs;

  // Pre-solve analyzer predictions (analysis/RegexAnalyzer.h), recorded so
  // every solve audits the analyzer: predicted class/cost vs. the actual
  // states/time above. Empty/zero when the query skipped analysis.
  const char *PredictedClass = ""; ///< reClassName() static string
  uint32_t RiskScore = 0;          ///< analyzer risk score [0,100]
  uint64_t PredictedStates = 0;    ///< coarse upper bound used for routing
  int64_t AnalysisUs = 0;          ///< time inside RegexAnalyzer::analyze
  uint64_t AnalysisNodesVisited = 0; ///< DAG nodes folded for this query
  uint64_t AnalysisCacheHits = 0;    ///< analyze() memo hits for this query

  SolveStats &operator+=(const SolveStats &O) {
    DerivativeCalls += O.DerivativeCalls;
    DnfCalls += O.DnfCalls;
    BrzozowskiCalls += O.BrzozowskiCalls;
    DnfBranchesExplored += O.DnfBranchesExplored;
    DnfBranchesPruned += O.DnfBranchesPruned;
    ArcsEnumerated += O.ArcsEnumerated;
    MintermComputations += O.MintermComputations;
    MintermsProduced += O.MintermsProduced;
    InternHits += O.InternHits;
    InternMisses += O.InternMisses;
    MemoHits += O.MemoHits;
    MemoMisses += O.MemoMisses;
    ArenaNodes += O.ArenaNodes;
    PeakFrontier = PeakFrontier > O.PeakFrontier ? PeakFrontier : O.PeakFrontier;
    SolverSteps += O.SolverSteps;
    TimeoutChecks += O.TimeoutChecks;
    ParseUs += O.ParseUs;
    MintermUs += O.MintermUs;
    DeriveUs += O.DeriveUs;
    DnfUs += O.DnfUs;
    CacheProbeUs += O.CacheProbeUs;
    ScanUs += O.ScanUs;
    SearchUs += O.SearchUs;
    TotalUs += O.TotalUs;
    AnalysisUs += O.AnalysisUs;
    AnalysisNodesVisited += O.AnalysisNodesVisited;
    AnalysisCacheHits += O.AnalysisCacheHits;
    if (PredictedClass[0] == '\0') {
      PredictedClass = O.PredictedClass;
      RiskScore = O.RiskScore;
      PredictedStates = O.PredictedStates;
    }
    // Aggregates keep the first-seen engine; callers that mix engines
    // should bucket by Engine before summing (BatchSolver does).
    return *this;
  }

  /// Flat JSON object with stable snake_case keys (used by --stats-json
  /// and `(get-info :statistics)`).
  std::string json() const {
    char Buf[2048];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"engine\": \"%s\", "
        "\"derivative_calls\": %llu, \"dnf_calls\": %llu, "
        "\"brzozowski_calls\": %llu, \"dnf_branches_explored\": %llu, "
        "\"dnf_branches_pruned\": %llu, \"arcs_enumerated\": %llu, "
        "\"minterm_computations\": %llu, \"minterms_produced\": %llu, "
        "\"intern_hits\": %llu, \"intern_misses\": %llu, "
        "\"memo_hits\": %llu, \"memo_misses\": %llu, "
        "\"arena_nodes\": %llu, \"peak_frontier\": %llu, "
        "\"solver_steps\": %llu, \"timeout_checks\": %llu, "
        "\"parse_us\": %lld, \"minterm_us\": %lld, "
        "\"derive_us\": %lld, \"dnf_us\": %lld, "
        "\"scan_us\": %lld, "
        "\"search_us\": %lld, \"total_us\": %lld, "
        "\"predicted_class\": \"%s\", \"risk_score\": %u, "
        "\"predicted_states\": %llu, \"analysis_us\": %lld, "
        "\"analysis_nodes_visited\": %llu, \"analysis_cache_hits\": %llu}",
        solveEngineName(Engine),
        static_cast<unsigned long long>(DerivativeCalls),
        static_cast<unsigned long long>(DnfCalls),
        static_cast<unsigned long long>(BrzozowskiCalls),
        static_cast<unsigned long long>(DnfBranchesExplored),
        static_cast<unsigned long long>(DnfBranchesPruned),
        static_cast<unsigned long long>(ArcsEnumerated),
        static_cast<unsigned long long>(MintermComputations),
        static_cast<unsigned long long>(MintermsProduced),
        static_cast<unsigned long long>(InternHits),
        static_cast<unsigned long long>(InternMisses),
        static_cast<unsigned long long>(MemoHits),
        static_cast<unsigned long long>(MemoMisses),
        static_cast<unsigned long long>(ArenaNodes),
        static_cast<unsigned long long>(PeakFrontier),
        static_cast<unsigned long long>(SolverSteps),
        static_cast<unsigned long long>(TimeoutChecks),
        static_cast<long long>(ParseUs), static_cast<long long>(MintermUs),
        static_cast<long long>(DeriveUs), static_cast<long long>(DnfUs),
        static_cast<long long>(ScanUs),
        static_cast<long long>(SearchUs), static_cast<long long>(TotalUs),
        PredictedClass, RiskScore,
        static_cast<unsigned long long>(PredictedStates),
        static_cast<long long>(AnalysisUs),
        static_cast<unsigned long long>(AnalysisNodesVisited),
        static_cast<unsigned long long>(AnalysisCacheHits));
    return Buf;
  }
};

/// Result of one query, including the statistics the benchmark harness
/// reports.
struct SolveResult {
  SolveStatus Status = SolveStatus::Unknown;
  /// A word in the language (Sat only).
  std::vector<uint32_t> Witness;
  /// States/regexes materialized while solving.
  size_t StatesExplored = 0;
  /// Wall-clock time spent, microseconds.
  int64_t TimeUs = 0;
  /// Machine-readable cause of an Unknown/Unsupported verdict.
  StopReason Stop = StopReason::None;
  /// Diagnostic for Unknown/Unsupported (human-readable companion of Stop).
  std::string Note;
  /// Per-query work attribution (see SolveStats).
  SolveStats Stats;

  bool isSat() const { return Status == SolveStatus::Sat; }
  bool isUnsat() const { return Status == SolveStatus::Unsat; }
};

/// Human-readable status name.
inline const char *statusName(SolveStatus S) {
  switch (S) {
  case SolveStatus::Sat:
    return "sat";
  case SolveStatus::Unsat:
    return "unsat";
  case SolveStatus::Unknown:
    return "unknown";
  case SolveStatus::Unsupported:
    return "unsupported";
  }
  return "?";
}

} // namespace sbd

#endif // SBD_SOLVER_SOLVERRESULT_H

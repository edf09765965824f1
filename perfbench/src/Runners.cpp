//===- perfbench/Runners.cpp - The four workloads ---------------------------===//

#include "Runners.h"

#include "Reference.h"

#include "cache/VerdictCache.h"
#include "dist/Coordinator.h"
#include "portfolio/SolverStack.h"
#include "re/RegexParser.h"
#include "smt/SmtSolver.h"
#include "support/Histogram.h"
#include "support/Metrics.h"
#include "support/Unicode.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

using namespace perfbench;
using namespace sbd;

namespace {

using Clock = std::chrono::steady_clock;

double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// A field of /proc/self/status, in kB.
double statusKb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0)
      return std::strtod(Line.c_str() + Len, nullptr);
  std::fprintf(stderr, "perfbench: no %s in /proc/self/status\n", Field);
  std::exit(2);
}

/// Peak resident memory a stretch of work adds to the process. begin()
/// hands the heap pages earlier work freed back to the kernel and resets
/// the high-water mark, so that what the benchmark holds (inputs, labels,
/// the witnesses it has replayed) is in the base, and the peak is what the
/// work touches on top of it.
class RssWindow {
public:
  void begin() {
    malloc_trim(0);
    std::ofstream ClearRefs("/proc/self/clear_refs");
    ClearRefs << "5" << std::flush;
    if (!ClearRefs) {
      std::fprintf(stderr, "perfbench: cannot reset the resident high-water "
                           "mark through /proc/self/clear_refs\n");
      std::exit(2);
    }
    BaseKb = statusKb("VmRSS:");
  }
  double baseKb() const { return BaseKb; }
  /// Growth of the high-water mark over the base, in MB.
  double peakMb() const {
    return std::max(0.0, statusKb("VmHWM:") - BaseKb) / 1024.0;
  }

private:
  double BaseKb = 0;
};

/// Largest resident peak of any child process reaped so far, in kB.
double childrenPeakKb() {
  rusage U{};
  getrusage(RUSAGE_CHILDREN, &U);
  return static_cast<double>(U.ru_maxrss);
}

//===----------------------------------------------------------------------===//
// Host-speed reference
//===----------------------------------------------------------------------===//

/// A shared host's single-thread speed drifts with its other tenants' load
/// (by up to 1.8x within a minute on the 4-vCPU KVM guest this benchmark
/// was tuned on). Between timed calls the benchmark runs a fixed reference
/// slice -- standard-library string hashing, no solver code -- and scales
/// each timing by the slice's nominal time over the median of the latest
/// slices, which cancels most of that drift. Raw timings are printed
/// beside. A workload that runs in parallel runs the slice on as many
/// fresh threads at once, so the reference also sees the cores it gets.
/// (An allocation-free pointer walk tracked the drift worse: the solver's
/// work evicts it from the caches, so it mostly measured the call before.)
class HostSpeed {
public:
  explicit HostSpeed(unsigned Threads = 1) : Threads(Threads) {}

  /// Runs and times one reference slice (on each of Threads threads).
  void sample() {
    if (Threads == 1) {
      // On a thread of its own, so that the slice allocates from a heap
      // arena only slices use: the measured work's heap would otherwise
      // set the slice's speed.
      double Us = 0;
      std::thread([&Us] {
        auto S0 = Clock::now();
        slice();
        Us = usBetween(S0, Clock::now());
      }).join();
      Recent[Count++ % Window] = Us;
      return;
    }
    auto T0 = Clock::now();
    std::vector<std::thread> Pool;
    for (unsigned I = 0; I != Threads; ++I)
      Pool.emplace_back(slice);
    for (std::thread &T : Pool)
      T.join();
    Recent[Count++ % Window] = usBetween(T0, Clock::now());
  }

  /// Multiplier that scales a timing taken now to the nominal host.
  double factor() const {
    // Typical slice times on the tuning host, so that scaled values read
    // close to raw there; the parallel slice includes thread start-up.
    const double NominalUs = Threads == 1 ? 97.0 : 210.0;
    std::vector<double> V(Recent, Recent + std::min(Count, Window));
    return V.empty() ? 1.0 : NominalUs / median(V);
  }

private:
  static void slice() {
    static std::atomic<uint64_t> Sink{0};
    std::unordered_map<std::string, uint32_t> Map;
    for (uint32_t I = 0; I != 256; ++I)
      Map.emplace(std::to_string(I * 2654435761u), I);
    uint64_t Sum = 0;
    for (uint32_t I = 0; I != 512; ++I)
      if (auto It = Map.find(std::to_string(I * 2654435761u)); It != Map.end())
        Sum += It->second;
    Sink.fetch_add(Sum, std::memory_order_relaxed);
  }

  static constexpr size_t Window = 9;
  unsigned Threads;
  double Recent[Window] = {};
  size_t Count = 0;
};

/// Times a pass in segments, each started after a reference slice and
/// scaled by the host factor current when it ran; the slices themselves
/// stay outside the pass time.
struct PassClock {
  HostSpeed &Host;
  double RawUs = 0, ScaledUs = 0, Factor = 1;
  Clock::time_point Start;

  explicit PassClock(HostSpeed &H) : Host(H) {}
  void begin() {
    Host.sample();
    Factor = Host.factor();
    Start = Clock::now();
  }
  /// Ends the segment and returns its raw microseconds.
  double end() {
    double Us = usBetween(Start, Clock::now());
    RawUs += Us;
    ScaledUs += Us * Factor;
    return Us;
  }
};

//===----------------------------------------------------------------------===//
// Correctness
//===----------------------------------------------------------------------===//

/// Checks verdicts against the reference labels and replays Sat witnesses.
/// A witness equal to one already replayed for the same question is not
/// replayed again.
class Checker {
public:
  Checker(const std::vector<Query> &Qs, RunReport &Rep)
      : Qs(Qs), Rep(Rep), Good(Qs.size()) {}

  void check(size_t I, SolveStatus S, StopReason Stop,
             const std::vector<uint32_t> &Witness) {
    ++Attempted;
    const Query &Q = Qs[I];
    if (S != SolveStatus::Sat && S != SolveStatus::Unsat) {
      ++Stopped[stopReasonName(Stop)];
      return;
    }
    bool Sat = S == SolveStatus::Sat;
    if (Q.Expected == Label::Unknown) {
      // Only a replayed witness can confirm an unlabelled verdict.
      ++Unlabelled;
      if (!Sat)
        return;
    } else if ((Q.Expected == Label::Sat) != Sat) {
      ++Wrong;
      Rep.error(format("wrong verdict %s for %s query #%zu: %s",
                       statusName(S), Q.Family.c_str(), I,
                       Q.Pattern.c_str()));
      return;
    }
    if (Sat && !(Good[I] && *Good[I] == Witness)) {
      if (!witnessValid(Q.Pattern, Witness)) {
        ++BadWitness;
        Rep.error(format("invalid witness \"%s\" for %s query #%zu: %s",
                         toUtf8(Witness).c_str(), Q.Family.c_str(), I,
                         Q.Pattern.c_str()));
        return;
      }
      Good[I] = Witness;
    }
    ++Correct;
  }

  /// Checks the results of the queries from index \p First on.
  void checkBatch(const std::vector<BatchResult> &Results, size_t First = 0) {
    for (size_t I = 0; I != Results.size(); ++I)
      check(First + I, Results[I].Result.Status, Results[I].Result.Stop,
            Results[I].Result.Witness);
  }

  /// Fills attempted/failed and notes the verdict breakdown.
  void finish(RunReport &R) const {
    R.Attempted = Attempted;
    R.Failed = Attempted - Correct;
    std::string Stops;
    for (const auto &[Name, N] : Stopped)
      Stops += format(" %s=%llu", Name.c_str(),
                      static_cast<unsigned long long>(N));
    R.note(format("verdicts: attempted=%llu correct=%llu wrong=%llu "
                  "invalid_witness=%llu unlabelled=%llu undecided:%s",
                  static_cast<unsigned long long>(Attempted),
                  static_cast<unsigned long long>(Correct),
                  static_cast<unsigned long long>(Wrong),
                  static_cast<unsigned long long>(BadWitness),
                  static_cast<unsigned long long>(Unlabelled),
                  Stops.empty() ? " none" : Stops.c_str()));
  }

  uint64_t Attempted = 0, Correct = 0, Wrong = 0, BadWitness = 0,
           Unlabelled = 0;
  std::map<std::string, uint64_t> Stopped;

private:
  const std::vector<Query> &Qs;
  RunReport &Rep;
  std::vector<std::optional<std::vector<uint32_t>>> Good;
};

//===----------------------------------------------------------------------===//
// Layer accounting for traced passes
//===----------------------------------------------------------------------===//

enum Layer : size_t {
  LRe,
  LAnalysis,
  LPortfolio,
  LCore,
  LCharset,
  LSolver,
  LMatcher,
  LCache,
  LSmt,
  LDist,
  NumLayers
};
const char *const LayerNames[NumLayers] = {
    "re",     "analysis", "portfolio", "core", "charset",
    "solver", "matcher",  "cache",     "smt",  "dist"};

/// Self time per layer plus the SolveStats sums of one traced pass.
struct LayerClock {
  double Self[NumLayers] = {};
  SolveStats Solve; ///< summed over the pass's solver calls
  uint64_t Unknowns = 0;

  /// Splits the time of solver calls whose summed SolveStats are \p St
  /// over the layers below the portfolio; returns the microseconds it
  /// attributed. Minterm time runs inside δ/δdnf, so it is carved out of
  /// the core's share; the search residual holds the scans and the
  /// solver's own analysis call. What TotalUs holds beyond the solve
  /// phases is a verdict-cache hit.
  double splitSolve(const SolveStats &St) {
    Solve += St;
    auto D = [](int64_t V) { return static_cast<double>(V); };
    double DeriveDnf = D(St.DeriveUs + St.DnfUs);
    double Minterm = std::min(D(St.MintermUs), DeriveDnf);
    double Search = std::max(0.0, D(St.SearchUs + St.CacheProbeUs) -
                                      D(St.ScanUs) - D(St.AnalysisUs));
    double Cache = std::max(0.0, D(St.TotalUs) -
                                     D(St.DeriveUs + St.DnfUs +
                                       St.CacheProbeUs + St.SearchUs));
    Self[LAnalysis] += D(St.AnalysisUs);
    Self[LCharset] += Minterm;
    Self[LCore] += DeriveDnf - Minterm;
    Self[LMatcher] += D(St.ScanUs);
    Self[LSolver] += Search;
    Self[LCache] += Cache;
    return D(St.AnalysisUs) + DeriveDnf + D(St.ScanUs) + Search + Cache;
  }

  /// Charges a public call of \p Us microseconds to \p L, minus the part
  /// \p Attributed already charged to the layers below it.
  void charge(Layer L, double Us, double Attributed = 0) {
    Self[L] += std::max(0.0, Us - Attributed);
  }
};

/// Per-layer metrics of one traced pass, by metric name.
using PassMetrics = std::map<std::string, double>;

/// The per-layer metrics every traced run prints, in BENCHMARK.json order,
/// with their units. Metrics a workload has no such layer for stay 0.
const std::pair<const char *, const char *> PerLayerMetrics[] = {
    {"re.parse_us", "us/query"},
    {"re.intern_misses", "count"},
    {"re.arena_nodes", "count"},
    {"re.self_us", "us/query"},
    {"analysis.us", "us/query"},
    {"analysis.nodes_visited", "count"},
    {"analysis.self_us", "us/query"},
    {"portfolio.stack_us", "us/query"},
    {"portfolio.checksat_us", "us/query"},
    {"portfolio.revalidate_us", "us/query"},
    {"portfolio.antimirov_share", "ratio"},
    {"portfolio.self_us", "us/query"},
    {"core.derivative_calls", "count"},
    {"core.dnf_calls", "count"},
    {"core.arcs", "count"},
    {"core.derive_us", "us/query"},
    {"core.dnf_us", "us/query"},
    {"core.memo_hit_ratio", "ratio"},
    {"core.dnf_prune_ratio", "ratio"},
    {"core.self_us", "us/query"},
    {"charset.minterm_us", "us/query"},
    {"charset.minterms_produced", "count"},
    {"charset.alphabet_classes", "count"},
    {"charset.self_us", "us/query"},
    {"solver.steps", "count"},
    {"solver.peak_frontier", "count"},
    {"solver.search_us", "us/query"},
    {"solver.stopped", "count"},
    {"solver.self_us", "us/query"},
    {"matcher.scan_us", "us/query"},
    {"matcher.dfa_states_built", "count"},
    {"matcher.self_us", "us/query"},
    {"cache.hit_ratio", "ratio"},
    {"cache.inserts", "count"},
    {"cache.evictions", "count"},
    {"cache.revalidation_failures", "count"},
    {"cache.self_us", "us/query"},
    {"smt.sexpr_parse_us", "us/query"},
    {"smt.checksat_us", "us/query"},
    {"smt.other_cmd_us", "us/query"},
    {"smt.frontend_us", "us/query"},
    {"smt.cubes_tried", "count"},
    {"smt.self_us", "us/query"},
    {"dist.spawn_us", "us"},
    {"dist.rpc_p50_us", "us"},
    {"dist.rpc_p99_us", "us"},
    {"dist.dispatched", "count"},
    {"dist.steals", "count"},
    {"dist.requeues", "count"},
    {"dist.lost", "count"},
    {"dist.worker_busy_share", "ratio"},
    {"dist.self_us", "us/query"},
    {"unattributed_share", "ratio"},
    {"trace_overhead", "ratio"},
    {"host.spin_capacity", "cores"},
};

/// Counters that must repeat exactly on every pass over the same inputs.
const char *const DeterministicCounters[] = {
    "re.intern_misses",     "re.arena_nodes",
    "analysis.nodes_visited", "core.derivative_calls",
    "core.dnf_calls",       "core.arcs",
    "charset.minterms_produced", "charset.alphabet_classes", "solver.steps",
    "matcher.dfa_states_built", "cache.inserts",
    "cache.evictions"};

/// Layer metrics computed in worker processes of corpus_dist: the wire
/// carries only TotalUs and Engine, so the coordinator cannot see them.
const char *const WorkerSideMetrics[] = {
    "re.parse_us",          "re.intern_misses",
    "re.arena_nodes",       "analysis.us",
    "analysis.nodes_visited", "portfolio.stack_us",
    "portfolio.checksat_us", "portfolio.revalidate_us",
    "core.derivative_calls", "core.dnf_calls",
    "core.arcs",            "core.derive_us",
    "core.dnf_us",          "core.memo_hit_ratio",
    "core.dnf_prune_ratio", "charset.minterm_us",
    "charset.minterms_produced", "charset.alphabet_classes", "solver.steps",
    "solver.peak_frontier", "solver.search_us",
    "matcher.scan_us",      "matcher.dfa_states_built",
    "cache.hit_ratio",      "cache.inserts",
    "cache.evictions",      "cache.revalidation_failures"};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// A pass's metrics, every per-layer metric present and 0.
PassMetrics blankMetrics() {
  PassMetrics M;
  for (const auto &[Name, Unit] : PerLayerMetrics) {
    (void)Unit;
    M[Name] = 0;
  }
  return M;
}

/// Fills the self-time, unattributed and SolveStats-derived metrics of a
/// traced pass that made \p Queries solver-level queries over \p WallUs.
void addLayerMetrics(PassMetrics &M, const LayerClock &L, double WallUs,
                     double Queries) {
  double Sum = 0;
  for (size_t I = 0; I != NumLayers; ++I) {
    M[std::string(LayerNames[I]) + ".self_us"] = L.Self[I] / Queries;
    Sum += L.Self[I];
  }
  M["unattributed_share"] = ratio(WallUs - Sum, WallUs);
  auto D = [](int64_t V) { return static_cast<double>(V); };
  M["analysis.us"] = D(L.Solve.AnalysisUs) / Queries;
  M["core.derive_us"] = D(L.Solve.DeriveUs) / Queries;
  M["core.dnf_us"] = D(L.Solve.DnfUs) / Queries;
  M["charset.minterm_us"] = D(L.Solve.MintermUs) / Queries;
  M["solver.search_us"] = D(L.Solve.SearchUs) / Queries;
  M["solver.peak_frontier"] = static_cast<double>(L.Solve.PeakFrontier);
  M["solver.stopped"] = static_cast<double>(L.Unknowns);
}

/// Fills the metrics read from the process-wide counter registry; \p D is
/// the registry's change over the pass.
void addRegistryMetrics(PassMetrics &M, const obs::MetricShard &D,
                        double Queries) {
  using obs::Counter;
  auto G = [&](Counter C) { return static_cast<double>(D.get(C)); };
  M["analysis.nodes_visited"] = G(Counter::AnalysisNodesVisited);
  M["core.derivative_calls"] = G(Counter::DerivativeCalls);
  M["core.dnf_calls"] = G(Counter::DnfCalls);
  M["core.arcs"] = G(Counter::ArcsEnumerated);
  M["core.dnf_prune_ratio"] =
      ratio(G(Counter::DnfBranchesPruned), G(Counter::DnfBranchesExplored));
  M["charset.minterms_produced"] = G(Counter::MintermsProduced);
  M["charset.alphabet_classes"] = G(Counter::AlphabetMinterms);
  M["solver.steps"] = G(Counter::SolverSteps);
  M["matcher.scan_us"] = G(Counter::ScanTimeUs) / Queries;
  M["matcher.dfa_states_built"] = G(Counter::DfaStatesBuilt);
}

/// Interning and memo counters of solver stacks the benchmark owns.
struct StackCounters {
  CacheStats Cache;
  uint64_t ArenaNodes = 0;

  void add(const portfolio::SolverStack &W) {
    Cache += W.stats();
    ArenaNodes += W.M.numNodes() + W.T.numNodes();
  }
  void addTo(PassMetrics &M) const {
    M["re.intern_misses"] = static_cast<double>(Cache.InternMisses);
    M["re.arena_nodes"] = static_cast<double>(ArenaNodes);
    M["core.memo_hit_ratio"] = Cache.memoHitRate();
  }
};

//===----------------------------------------------------------------------===//
// Pass loop and result assembly
//===----------------------------------------------------------------------===//

/// Decides the next pass: untraced passes until time is up; with tracing,
/// untraced and traced passes alternate and each kind runs at least once.
class PassLoop {
public:
  explicit PassLoop(const RunConfig &C) : C(C), Start(Clock::now()) {}

  bool next(bool &Traced) {
    bool TimeLeft = usBetween(Start, Clock::now()) < C.Seconds * 1e6;
    bool NeedMore = Untraced == 0 || (C.Trace && TracedN == 0);
    if (!TimeLeft && !NeedMore)
      return false;
    Traced = C.Trace && (Untraced > TracedN);
    ++(Traced ? TracedN : Untraced);
    return true;
  }

private:
  const RunConfig &C;
  Clock::time_point Start;
  size_t Untraced = 0, TracedN = 0;
};

/// What every workload collects across its passes. Timings are scaled to
/// the nominal host (HostSpeed); the Raw* twins keep them as measured.
struct Collected {
  HostSpeed Host;
  std::vector<double> SetupUs;   ///< program set-up samples
  std::vector<double> PassQps, RawPassQps; ///< untraced passes: queries/s
  std::vector<double> CallUs, RawCallUs;   ///< untraced per-call latencies
  std::vector<double> UntracedWallUs, TracedWallUs; ///< scaled pass walls
  std::vector<PassMetrics> Traced;
  double TargetShare = 0;
  const char *TargetWhat = "";
  std::vector<double> PeakRssMb; ///< untraced passes: peak growth
  double SpinCapacity = 0;
  bool CheckDeterminism = false;
  bool WorkerSideAbsent = false;
};

void finishReport(const RunConfig &C, Collected &K, const Checker &Chk,
                  RunReport &R) {
  Chk.finish(R);
  std::vector<double> &Calls = K.CallUs, &Raw = K.RawCallUs;
  std::sort(Calls.begin(), Calls.end());
  std::sort(Raw.begin(), Raw.end());
  Tail T = tailPercentile(Calls), RawT = tailPercentile(Raw);
  R.note(format("latency over %zu timed calls: p50 %.1f us, tail p%.0f "
                "%.1f us with %zu samples beyond it; as measured: p50 %.1f "
                "us, tail %.1f us",
                Calls.size(), percentile(Calls, 50), T.Percent, T.Value,
                T.Beyond, percentile(Raw, 50), RawT.Value));
  std::string Passes = "untraced pass throughput (queries/s), as measured:";
  for (double Q : K.RawPassQps)
    Passes += format(" %.5g", Q);
  R.note(Passes);
  R.note(format("host factor (nominal/observed reference slice time): "
                "%.3f, median over the run's untraced passes",
                ratio(median(K.RawPassQps), median(K.PassQps))));
  std::string Peaks = "peak resident growth per untraced pass (MB):";
  for (double Mb : K.PeakRssMb)
    Peaks += format(" %.3f", Mb);
  R.note(Peaks);
  R.note(format("passes: %zu untraced, %zu traced; set-up samples: %zu",
                K.UntracedWallUs.size(), K.TracedWallUs.size(),
                K.SetupUs.size()));
  R.note(format("%s: %.4f", K.TargetWhat, K.TargetShare));
  if (!C.Trace) {
    R.add("setup_s", median(K.SetupUs) / 1e6, "s");
    R.add("throughput_qps", median(K.PassQps), "queries/s");
    R.add("latency_p50_us", percentile(Calls, 50), "us");
    R.add("latency_tail_us", T.Value, "us");
    R.add("decided_share",
          ratio(static_cast<double>(Chk.Correct),
                static_cast<double>(Chk.Attempted)),
          "ratio");
    R.add("peak_rss_mb", median(K.PeakRssMb), "MB");
    return;
  }

  if (K.CheckDeterminism)
    for (const char *Name : DeterministicCounters)
      for (const PassMetrics &P : K.Traced)
        if (P.at(Name) != K.Traced.front().at(Name)) {
          R.error(format("counter %s differs between passes over the same "
                         "inputs: %.17g vs %.17g",
                         Name, P.at(Name), K.Traced.front().at(Name)));
          break;
        }
  PassMetrics Final;
  for (const auto &[Name, Unit] : PerLayerMetrics) {
    (void)Unit;
    std::vector<double> V;
    for (const PassMetrics &P : K.Traced)
      if (auto It = P.find(Name); It != P.end())
        V.push_back(It->second);
    Final[Name] = median(V);
  }
  Final["trace_overhead"] =
      ratio(median(K.TracedWallUs), median(K.UntracedWallUs));
  Final["host.spin_capacity"] = K.SpinCapacity;
  if (K.WorkerSideAbsent) {
    std::string Absent;
    for (const char *Name : WorkerSideMetrics)
      Absent += std::string(" ") + Name;
    R.note("absent (computed in worker processes, not on the wire; printed "
           "as the coordinator's own count, 0):" +
           Absent);
  }
  std::string Self = "self time per query (us):";
  for (const char *L : LayerNames)
    Self += format(" %s=%.2f", L, Final[std::string(L) + ".self_us"]);
  R.note(Self);
  for (const auto &[Name, Unit] : PerLayerMetrics)
    R.add(Name, Final[Name], Unit);
}

std::vector<BatchQuery> toBatch(const std::vector<Query> &Qs,
                                const SolveOptions &Opts) {
  std::vector<BatchQuery> Out;
  Out.reserve(Qs.size());
  for (const Query &Q : Qs)
    Out.push_back({Q.Pattern, Opts});
  return Out;
}

/// A batch workload's queries in run order, cut into the chunks a pass
/// times between host reference slices.
using Chunks = std::vector<std::vector<BatchQuery>>;

Chunks chunked(const std::vector<Query> &Qs, const SolveOptions &Opts,
               size_t Size) {
  Chunks Out;
  for (size_t I = 0; I != Qs.size(); ++I) {
    if (I % Size == 0)
      Out.emplace_back();
    Out.back().push_back({Qs[I].Pattern, Opts});
  }
  return Out;
}

size_t countSat(const std::vector<BatchResult> &Results) {
  size_t Sat = 0;
  for (const BatchResult &R : Results)
    Sat += R.Result.isSat();
  return Sat;
}

/// Records set-up samples, each the mean of \p PerBlock timed
/// constructions by \p Make: one construction can take under a
/// microsecond. Each object is destroyed, untimed, before the next is
/// built, so sampling adds nothing to peak memory.
template <typename MakeFn>
void sampleSetup(Collected &K, size_t Blocks, size_t PerBlock, MakeFn Make) {
  for (size_t B = 0; B != Blocks; ++B) {
    K.Host.sample();
    double Us = 0;
    for (size_t I = 0; I != PerBlock; ++I) {
      auto T0 = Clock::now();
      auto Built = Make();
      Us += usBetween(T0, Clock::now());
    }
    K.SetupUs.push_back(Us / static_cast<double>(PerBlock) *
                        K.Host.factor());
  }
}

/// Set-up of the batch workloads: the solver stack a caller builds before
/// its first query.
void sampleStackSetup(Collected &K) {
  sampleSetup(K, 8, 256,
              [] { return std::make_unique<portfolio::SolverStack>(); });
}

/// A traced pass over batch queries: each through portfolio::solveOnStack
/// on a fresh stack, with the stack's build and teardown timed around the
/// call. The SolveStats the call returns split its wall time: ParseUs is
/// the parse, TotalUs - ParseUs the routed checkSat, and the rest the Sat
/// witness revalidation (for other verdicts, solveOnStack's own overhead).
/// Results are checked after the registry snapshot, so that the reference
/// matcher's work stays out of the counters.
PassMetrics tracedBatchPass(const Chunks &Cs, Collected &K,
                            std::vector<BatchResult> &Results) {
  LayerClock L;
  StackCounters SC;
  PassMetrics M = blankMetrics();
  double StackUs = 0, ParseUs = 0, CheckSatUs = 0, RevalidateUs = 0,
         Antimirov = 0;
  auto D = [](int64_t V) { return static_cast<double>(V); };
  obs::MetricShard Before = obs::MetricsRegistry::global().snapshot();
  PassClock PC(K.Host);
  for (const std::vector<BatchQuery> &Chunk : Cs) {
    PC.begin();
    for (const BatchQuery &Q : Chunk) {
      auto T0 = Clock::now();
      auto W = std::make_unique<portfolio::SolverStack>();
      auto T1 = Clock::now();
      Results.push_back(portfolio::solveOnStack(*W, Q, false));
      auto T2 = Clock::now();
      SC.add(*W);
      auto T3 = Clock::now();
      W.reset();
      double Stack = usBetween(T0, T1) + usBetween(T3, Clock::now());
      const BatchResult &Out = Results.back();
      const SolveStats &St = Out.Result.Stats;
      bool Sat = Out.Result.isSat();
      double Rest = std::max(0.0, usBetween(T1, T2) - D(St.TotalUs));
      L.charge(LPortfolio, Stack);
      L.charge(LRe, D(St.ParseUs));
      L.charge(Sat ? LMatcher : LPortfolio, Rest);
      StackUs += Stack;
      ParseUs += D(St.ParseUs);
      RevalidateUs += Sat ? Rest : 0;
      if (!Out.ParseOk)
        continue;
      // What checkSat recorded. ScanUs also holds the revalidation's scans,
      // which Rest already charges; those are the first to leave it.
      SolveStats InCheck = St;
      InCheck.TotalUs -= St.ParseUs;
      InCheck.ScanUs = static_cast<int64_t>(
          std::max(0.0, D(St.ScanUs) - (Sat ? Rest : 0)));
      L.charge(LPortfolio, D(InCheck.TotalUs), L.splitSolve(InCheck));
      CheckSatUs += D(InCheck.TotalUs);
      Antimirov += St.Engine == SolveEngine::Antimirov;
      if (!Sat && !Out.Result.isUnsat())
        ++L.Unknowns;
    }
    PC.end();
  }
  K.TracedWallUs.push_back(PC.ScaledUs);
  double N = static_cast<double>(Results.size());
  addRegistryMetrics(
      M, obs::MetricsRegistry::global().snapshot().since(Before), N);
  addLayerMetrics(M, L, PC.RawUs, N);
  SC.addTo(M);
  M["re.parse_us"] = ParseUs / N;
  M["portfolio.stack_us"] = StackUs / N;
  M["portfolio.checksat_us"] = CheckSatUs / N;
  M["portfolio.revalidate_us"] = RevalidateUs / N;
  M["portfolio.antimirov_share"] = Antimirov / N;
  return M;
}

/// One pass of a batch workload. Untraced, \p Call solves a chunk and
/// returns its results with each public call timed; each chunk's results
/// are checked once its segment ends, so none outlive their chunk, and the
/// pass's peak memory is recorded. Traced, the pass is tracedBatchPass.
template <typename CallFn>
void batchPass(const Chunks &Cs, bool Traced, Collected &K, Checker &Chk,
               CallFn Call) {
  if (Traced) {
    std::vector<BatchResult> Results;
    K.Traced.push_back(tracedBatchPass(Cs, K, Results));
    Chk.checkBatch(Results);
    return;
  }
  RssWindow Rss;
  Rss.begin();
  PassClock PC(K.Host);
  size_t First = 0, Sat = 0;
  for (const std::vector<BatchQuery> &Chunk : Cs) {
    PC.begin();
    std::vector<BatchResult> Results = Call(Chunk, PC);
    PC.end();
    Sat += countSat(Results);
    Chk.checkBatch(Results, First);
    First += Chunk.size();
  }
  K.PeakRssMb.push_back(Rss.peakMb());
  double N = static_cast<double>(First);
  K.UntracedWallUs.push_back(PC.ScaledUs);
  K.PassQps.push_back(N / PC.ScaledUs * 1e6);
  K.RawPassQps.push_back(N / PC.RawUs * 1e6);
  K.TargetShare = ratio(static_cast<double>(Sat), N);
}

/// Records one timed public call of \p Us raw microseconds.
void recordCall(Collected &K, const PassClock &PC, double Us) {
  K.CallUs.push_back(Us * PC.Factor);
  K.RawCallUs.push_back(Us);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Queries per BatchSolver::solveAll call in corpus_batch: small enough
/// that the host reference runs every ~10 ms, large enough that the call's
/// fixed cost stays in the noise.
constexpr size_t CorpusChunk = 256;

/// corpus_batch: the corpus through BatchSolver::solveAll, 1 thread,
/// default options (a fresh arena per query), one call per chunk.
void runCorpusBatch(const RunConfig &C, const std::vector<Query> &Qs,
                    Collected &K, Checker &Chk) {
  Chunks Cs = chunked(Qs, SolveOptions{}, CorpusChunk);
  K.TargetWhat = "share of queries answered Sat (each needs witness "
                 "revalidation)";
  K.CheckDeterminism = true;
  PassLoop Loop(C);
  bool Traced = false;
  while (Loop.next(Traced)) {
    sampleStackSetup(K);
    batchPass(Cs, Traced, K, Chk,
              [&K](const std::vector<BatchQuery> &Chunk, PassClock &PC) {
                BatchSolver Solver;
                auto T0 = Clock::now();
                std::vector<BatchResult> Results = Solver.solveAll(Chunk);
                recordCall(K, PC, usBetween(T0, Clock::now()));
                return Results;
              });
  }
}

/// Queries between host reference slices in hard_boolean: a slice disturbs
/// the caches of the query right after it, so it runs only every few.
constexpr size_t HardChunk = 8;

/// hard_boolean: every query through portfolio::solveOnStack on a fresh
/// stack, timed one by one.
void runHardBoolean(const RunConfig &C, const std::vector<Query> &Qs,
                    Collected &K, Checker &Chk, RunReport &Rep) {
  // The state cap bounds every query; the wall limit sits far above the
  // slowest instance so that no verdict depends on machine speed.
  SolveOptions Opts;
  Opts.MaxStates = 1 << 16;
  Opts.TimeoutMs = 60000;
  Chunks Cs = chunked(Qs, Opts, HardChunk);
  K.TargetWhat = "share of solve time spent on the unsat length-window "
                 "family";
  K.CheckDeterminism = true;
  std::map<std::string, double> FamilyUs;
  PassLoop Loop(C);
  bool Traced = false;
  while (Loop.next(Traced)) {
    sampleStackSetup(K);
    if (!Traced)
      FamilyUs.clear();
    size_t Next = 0;
    batchPass(Cs, Traced, K, Chk,
              [&](const std::vector<BatchQuery> &Chunk, PassClock &PC) {
                std::vector<BatchResult> Results;
                for (const BatchQuery &Q : Chunk) {
                  auto W = std::make_unique<portfolio::SolverStack>();
                  auto T0 = Clock::now();
                  Results.push_back(portfolio::solveOnStack(*W, Q, false));
                  double Us = usBetween(T0, Clock::now());
                  W.reset();
                  recordCall(K, PC, Us);
                  FamilyUs[Qs[Next++].Family] += Us;
                }
                return Results;
              });
    if (!Traced) {
      double CallsUs = 0;
      for (const auto &[Family, Us] : FamilyUs)
        CallsUs += Us;
      K.TargetShare = ratio(FamilyUs[kLenWindowFamily], CallsUs);
    }
  }
  std::string Families = "solve time per family in the last untraced pass "
                         "(ms):";
  for (const auto &[Family, Us] : FamilyUs)
    Families += format(" %s=%.1f", Family.c_str(), Us / 1e3);
  Rep.note(Families);
}

/// The model value of x in a (get-model) reply.
std::optional<std::vector<uint32_t>> modelValue(const std::string &Reply) {
  const std::string Key = "String \"";
  size_t Begin = Reply.find(Key);
  size_t End = Reply.rfind('"');
  if (Begin == std::string::npos || End == std::string::npos ||
      End < Begin + Key.size())
    return std::nullopt;
  std::string Raw = Reply.substr(Begin + Key.size(), End - Begin - Key.size());
  std::string Value;
  for (size_t I = 0; I < Raw.size(); ++I) {
    Value.push_back(Raw[I]);
    if (Raw[I] == '"')
      ++I; // "" encodes one quote
  }
  return fromUtf8(Value);
}

/// One session's program state: solver stack, verdict cache, session.
struct SessionState {
  portfolio::SolverStack Stack;
  cache::VerdictCache Cache;
  SmtSession Session{Stack.S};

  explicit SessionState(size_t Capacity)
      : Cache(cache::VerdictCache::Config{Capacity}) {
    Session.setVerdictCache(&Cache);
  }
};

/// session_replay: one SmtSession with an attached VerdictCache, driven
/// by one client through the script stream; the client asks for the model
/// after every sat answer.
void runSessionReplay(const RunConfig &C, const SessionInputs &In,
                      Collected &K, Checker &Chk, RunReport &Rep) {
  SExpr GetModel = parseSExprs("(get-model)").Forms.at(0);
  K.TargetShare = In.RepeatShare;
  K.TargetWhat = "share of check-sats repeating an earlier question";
  size_t Checks = 0;
  for (uint32_t Script : In.Stream)
    Checks += In.Pool[Script].CheckIds.size();
  struct Answer {
    uint32_t Check;
    std::string Status, Model;
  };
  PassLoop Loop(C);
  bool Traced = false;
  while (Loop.next(Traced)) {
    sampleSetup(K, 4, 16, [&] {
      return std::make_unique<SessionState>(In.CacheCapacity);
    });
    std::vector<Answer> Answers;
    Answers.reserve(Checks);
    RssWindow Rss;
    Rss.begin();
    auto St = std::make_unique<SessionState>(In.CacheCapacity);
    obs::MetricShard Before = obs::MetricsRegistry::global().snapshot();
    LayerClock L;
    double SExprParseUs = 0, CheckSatUs = 0, OtherCmdUs = 0, SubQueryUs = 0,
           Cubes = 0;
    // Segments of 64 scripts (about 8 ms) between host reference slices.
    constexpr size_t ScriptsPerSegment = 64;
    PassClock PC(K.Host);
    for (size_t Pos = 0; Pos != In.Stream.size(); ++Pos) {
      if (Pos % ScriptsPerSegment == 0)
        PC.begin();
      const SessionScript &S = In.Pool[In.Stream[Pos]];
      auto A0 = Clock::now();
      SExprParseResult Parsed = parseSExprs(S.Text);
      double ParseUs = usBetween(A0, Clock::now());
      L.charge(LSmt, ParseUs);
      SExprParseUs += ParseUs;
      size_t NextCheck = 0;
      double ScriptCheckUs = 0, ScriptOtherUs = 0;
      for (const SExpr &Form : Parsed.Forms) {
        bool IsCheck = Form.isList() && !Form.Kids.empty() &&
                       Form.Kids[0].isSymbol("check-sat");
        if (Traced && Form.isList() && !Form.Kids.empty() &&
            Form.Kids[0].isSymbol("reset")) {
          // Statistics accumulate per script: (reset) starts afresh.
          SmtResult Last = St->Session.lastResult();
          double Attributed = L.splitSolve(Last.Stats);
          L.charge(LSmt, ScriptCheckUs, Attributed);
          SubQueryUs += static_cast<double>(Last.Stats.TotalUs);
          Cubes += static_cast<double>(Last.CubesTried);
        }
        auto E0 = Clock::now();
        SmtSession::Reply R = St->Session.execute(Form);
        double Us = usBetween(E0, Clock::now());
        if (!IsCheck) {
          ScriptOtherUs += Us;
          if (R.IsError)
            Rep.error("session command failed: " + R.Text);
          continue;
        }
        ScriptCheckUs += Us;
        if (R.IsError)
          Rep.error("check-sat failed: " + R.Text);
        if (!Traced) {
          K.CallUs.push_back(Us * PC.Factor);
          K.RawCallUs.push_back(Us);
        }
        Answer A{S.CheckIds.at(NextCheck++), R.Text, ""};
        if (R.Text == "sat") {
          auto G0 = Clock::now();
          A.Model = St->Session.execute(GetModel).Text;
          ScriptOtherUs += usBetween(G0, Clock::now());
        }
        if (R.Text != "sat" && R.Text != "unsat")
          ++L.Unknowns;
        Answers.push_back(std::move(A));
      }
      CheckSatUs += ScriptCheckUs;
      L.charge(LSmt, ScriptOtherUs);
      OtherCmdUs += ScriptOtherUs;
      if ((Pos + 1) % ScriptsPerSegment == 0 || Pos + 1 == In.Stream.size())
        PC.end();
    }
    double Wall = PC.RawUs;
    double N = static_cast<double>(Answers.size());
    obs::MetricShard Delta =
        obs::MetricsRegistry::global().snapshot().since(Before);
    if (!Traced)
      K.PeakRssMb.push_back(Rss.peakMb());

    for (const Answer &A : Answers) {
      SolveStatus S = A.Status == "sat"     ? SolveStatus::Sat
                      : A.Status == "unsat" ? SolveStatus::Unsat
                                            : SolveStatus::Unknown;
      std::vector<uint32_t> Witness;
      if (S == SolveStatus::Sat) {
        std::optional<std::vector<uint32_t>> V = modelValue(A.Model);
        if (!V) {
          Rep.error("no model after sat: " + A.Model);
          continue;
        }
        Witness = std::move(*V);
      }
      Chk.check(A.Check, S, StopReason::None, Witness);
    }
    cache::VerdictCacheCounters CC = St->Cache.counters();
    if (CC.RevalidationFailures)
      Rep.error(format("%llu verdict-cache revalidation failures",
                       static_cast<unsigned long long>(
                           CC.RevalidationFailures)));

    if (!Traced) {
      K.UntracedWallUs.push_back(PC.ScaledUs);
      K.PassQps.push_back(N / PC.ScaledUs * 1e6);
      K.RawPassQps.push_back(N / Wall * 1e6);
      continue;
    }
    K.TracedWallUs.push_back(PC.ScaledUs);
    PassMetrics M = blankMetrics();
    addRegistryMetrics(M, Delta, N);
    addLayerMetrics(M, L, Wall, N);
    StackCounters SC;
    SC.add(St->Stack);
    SC.addTo(M);
    M["portfolio.checksat_us"] = SubQueryUs / N;
    M["cache.hit_ratio"] = CC.hitRate();
    M["cache.inserts"] = static_cast<double>(CC.Inserts);
    M["cache.evictions"] = static_cast<double>(CC.Evictions);
    M["cache.revalidation_failures"] =
        static_cast<double>(CC.RevalidationFailures);
    M["smt.sexpr_parse_us"] = SExprParseUs / N;
    M["smt.checksat_us"] = CheckSatUs / N;
    M["smt.other_cmd_us"] = OtherCmdUs / N;
    M["smt.frontend_us"] = (CheckSatUs - SubQueryUs) / N;
    M["smt.cubes_tried"] = Cubes;
    K.Traced.push_back(std::move(M));
  }
}

/// corpus_dist: corpus_batch's queries through DistSolver::solveAll with
/// up to 4 worker processes and default options.
void runCorpusDist(const RunConfig &C, const std::vector<Query> &Qs,
                   Collected &K, Checker &Chk, RunReport &Rep) {
  std::vector<BatchQuery> Batch = toBatch(Qs, SolveOptions{});
  dist::DistOptions Opts;
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  Opts.NumWorkers = std::min(4u, Cores);
  Rep.note(format("workers: %u (nproc %u)", Opts.NumWorkers, Cores));
  K.Host = HostSpeed(Opts.NumWorkers);
  K.TargetWhat = "share of queries answered Sat (each needs witness "
                 "revalidation)";
  K.WorkerSideAbsent = true;
  PassLoop Loop(C);
  bool Traced = false;
  while (Loop.next(Traced)) {
    // Every worker forked from here on starts with the coordinator's
    // trimmed resident set, the base.
    RssWindow Rss;
    Rss.begin();
    // Forking is the noisiest set-up step, so each pass adds two more
    // samples from solvers that are built and killed unused.
    for (int I = 0; I != 2; ++I) {
      K.Host.sample();
      auto S0 = Clock::now();
      dist::DistSolver Unused(Opts);
      K.SetupUs.push_back(usBetween(S0, Clock::now()) * K.Host.factor());
    }
    // One call per pass: the host factor comes from slices on both sides.
    for (int I = 0; I != 5; ++I)
      K.Host.sample();
    obs::HistogramRegistry::global().reset();
    obs::MetricShard Before = obs::MetricsRegistry::global().snapshot();
    auto T0 = Clock::now();
    auto Solver = std::make_unique<dist::DistSolver>(Opts);
    auto T1 = Clock::now();
    std::vector<BatchResult> Results = Solver->solveAll(Batch);
    auto T2 = Clock::now();
    dist::DistStats DS = Solver->stats();
    Solver.reset();
    obs::MetricShard Delta =
        obs::MetricsRegistry::global().snapshot().since(Before);
    // The coordinator's growth, and the largest worker's peak less the
    // base it inherited at the fork.
    if (!Traced)
      K.PeakRssMb.push_back(
          Rss.peakMb() +
          std::max(0.0, childrenPeakKb() - Rss.baseKb()) / 1024.0);
    for (int I = 0; I != 5; ++I)
      K.Host.sample();
    double Factor = K.Host.factor();
    double SpawnUs = usBetween(T0, T1), SolveUs = usBetween(T1, T2);
    K.SetupUs.push_back(SpawnUs * Factor);
    if (DS.Lost)
      Rep.error(format("%llu dist requests lost",
                       static_cast<unsigned long long>(DS.Lost)));
    Chk.checkBatch(Results);
    double N = static_cast<double>(Batch.size());
    if (!Traced) {
      K.UntracedWallUs.push_back(SolveUs * Factor);
      K.CallUs.push_back(SolveUs * Factor);
      K.RawCallUs.push_back(SolveUs);
      K.PassQps.push_back(N / (SolveUs * Factor) * 1e6);
      K.RawPassQps.push_back(N / SolveUs * 1e6);
      K.TargetShare = ratio(static_cast<double>(countSat(Results)), N);
      continue;
    }
    double Wall = usBetween(T0, T2);
    K.TracedWallUs.push_back(SolveUs * Factor);
    double BusyUs = 0;
    for (const BatchResult &R : Results)
      BusyUs += static_cast<double>(R.Result.Stats.TotalUs);
    LayerClock L;
    L.charge(LDist, Wall);
    PassMetrics M = blankMetrics();
    addRegistryMetrics(M, Delta, N);
    addLayerMetrics(M, L, Wall, N);
    obs::HistShard H = obs::HistogramRegistry::global().snapshot();
    const obs::HistShard::Data &Rpc = H.data(obs::Hist::DistRpcUs);
    M["dist.spawn_us"] = SpawnUs;
    M["dist.rpc_p50_us"] = static_cast<double>(obs::histPercentile(Rpc, 50));
    M["dist.rpc_p99_us"] = static_cast<double>(obs::histPercentile(Rpc, 99));
    M["dist.dispatched"] = static_cast<double>(DS.Dispatched);
    M["dist.steals"] = static_cast<double>(DS.Steals);
    M["dist.requeues"] = static_cast<double>(DS.Requeues);
    M["dist.lost"] = static_cast<double>(DS.Lost);
    M["dist.worker_busy_share"] =
        ratio(BusyUs, static_cast<double>(Opts.NumWorkers) * SolveUs);
    K.Traced.push_back(std::move(M));
  }
}

} // namespace

double perfbench::spinCapacity(unsigned Threads, int Ms) {
  auto spin = [Ms](uint64_t &Work) {
    auto End = Clock::now() + std::chrono::milliseconds(Ms);
    uint64_t X = 88172645463325252ULL, N = 0;
    while (Clock::now() < End) {
      for (int I = 0; I != 4096; ++I) {
        X ^= X << 13;
        X ^= X >> 7;
        X ^= X << 17;
      }
      ++N;
    }
    Work = N + (X == 0); // keeps X live
  };
  uint64_t One = 0;
  spin(One);
  std::vector<uint64_t> Work(Threads, 0);
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I != Threads; ++I)
    Pool.emplace_back(spin, std::ref(Work[I]));
  for (std::thread &T : Pool)
    T.join();
  uint64_t All = 0;
  for (uint64_t W : Work)
    All += W;
  return ratio(static_cast<double>(All), static_cast<double>(One));
}

RunReport perfbench::runWorkload(const RunConfig &C,
                                 const std::vector<Query> &Queries,
                                 const SessionInputs &Session) {
  RunReport R;
  R.note(format("workload %s, seed %llu, %zu labelled questions",
                workloadName(C.W), static_cast<unsigned long long>(C.Seed),
                Queries.size()));
  Collected K;
  K.SpinCapacity = spinCapacity(4, 40);
  R.note(format("spin probe: 4 spinning threads did %.2fx the work of one",
                K.SpinCapacity));
  Checker Chk(Queries, R);
  switch (C.W) {
  case Workload::CorpusBatch:
    runCorpusBatch(C, Queries, K, Chk);
    break;
  case Workload::HardBoolean:
    runHardBoolean(C, Queries, K, Chk, R);
    break;
  case Workload::SessionReplay:
    runSessionReplay(C, Session, K, Chk, R);
    break;
  case Workload::CorpusDist:
    runCorpusDist(C, Queries, K, Chk, R);
    break;
  }
  finishReport(C, K, Chk, R);
  return R;
}

//===- bench/BenchArgs.h - Shared command-line handling for the harness -----===//
///
/// \file
/// Minimal flag parsing shared by the Fig. 4 reproduction binaries:
///   --scale <f>        fraction of the paper's per-suite instance counts
///                      used for the generated (non-handwritten) suites
///   --timeout-ms <n>   per-instance wall-clock budget
///   --max-states <n>   per-instance state budget (safety net)
///   --seed <n>         generator seed
///   --quick            smoke-test preset: tiny scale and short timeouts,
///                      for CI and the stats-smoke step of check.sh
///   --trace <file>     record a span timeline of the run and write it as
///                      Chrome trace_event JSON (open in chrome://tracing
///                      or Perfetto)
///   --stats-json <file> write the merged counter registry, the histogram
///                      registry (p50/p90/p99), and the summed per-query
///                      SolveStats as a flat JSON document
///   --slow-log <file>  JSONL sink for slow-query explain artifacts
///                      (replay them with tools/sbd-explain)
///   --slow-threshold-us <n>   capture queries slower than n microseconds
///   --slow-node-threshold <n> capture queries allocating > n arena nodes
///   --expo <file>      write a Prometheus text exposition of the merged
///                      registries at the end of the run, and arm SIGUSR1
///                      for mid-run dumps to the same path
///
//===----------------------------------------------------------------------===//

#ifndef SBD_BENCH_BENCHARGS_H
#define SBD_BENCH_BENCHARGS_H

#include "solver/SlowQueryLog.h"
#include "solver/SolverResult.h"
#include "support/Exposition.h"
#include "support/Histogram.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace sbd {

struct BenchArgs {
  double Scale = 0.05;
  uint64_t Seed = 2021;
  bool Quick = false;
  std::string TraceFile;
  std::string StatsJsonFile;
  std::string SlowLogFile;
  int64_t SlowThresholdUs = -1;
  uint64_t SlowNodeThreshold = 0;
  std::string ExpoFile;
  SolveOptions Opts;

  static BenchArgs parse(int Argc, char **Argv) {
    BenchArgs A;
    A.Opts.TimeoutMs = 250;
    A.Opts.MaxStates = 200000;
    for (int I = 1; I < Argc; ++I) {
      auto need = [&](const char *Flag) -> const char * {
        if (I + 1 >= Argc) {
          std::fprintf(stderr, "error: %s needs a value\n", Flag);
          std::exit(1);
        }
        return Argv[++I];
      };
      if (!std::strcmp(Argv[I], "--scale"))
        A.Scale = std::atof(need("--scale"));
      else if (!std::strcmp(Argv[I], "--timeout-ms"))
        A.Opts.TimeoutMs = std::atoll(need("--timeout-ms"));
      else if (!std::strcmp(Argv[I], "--max-states"))
        A.Opts.MaxStates = std::strtoull(need("--max-states"), nullptr, 10);
      else if (!std::strcmp(Argv[I], "--seed"))
        A.Seed = std::strtoull(need("--seed"), nullptr, 10);
      else if (!std::strcmp(Argv[I], "--quick")) {
        A.Quick = true;
        A.Scale = 0.01;
        A.Opts.TimeoutMs = 100;
      } else if (!std::strcmp(Argv[I], "--trace"))
        A.TraceFile = need("--trace");
      else if (!std::strcmp(Argv[I], "--stats-json"))
        A.StatsJsonFile = need("--stats-json");
      else if (!std::strcmp(Argv[I], "--slow-log"))
        A.SlowLogFile = need("--slow-log");
      else if (!std::strcmp(Argv[I], "--slow-threshold-us"))
        A.SlowThresholdUs = std::atoll(need("--slow-threshold-us"));
      else if (!std::strcmp(Argv[I], "--slow-node-threshold"))
        A.SlowNodeThreshold =
            std::strtoull(need("--slow-node-threshold"), nullptr, 10);
      else if (!std::strcmp(Argv[I], "--expo"))
        A.ExpoFile = need("--expo");
      else {
        std::fprintf(stderr,
                     "usage: %s [--scale f] [--timeout-ms n] "
                     "[--max-states n] [--seed n] [--quick] "
                     "[--trace file] [--stats-json file] "
                     "[--slow-log file] [--slow-threshold-us n] "
                     "[--slow-node-threshold n] [--expo file]\n",
                     Argv[0]);
        std::exit(1);
      }
    }
    return A;
  }

  /// Call before the measured work: resets the counter and histogram
  /// registries so the stats dump covers exactly this run, arms the tracer
  /// when --trace was given, installs the slow-query capture policy, and
  /// arms SIGUSR1 exposition when --expo was given.
  void beginObservation() const {
    obs::MetricsRegistry::global().reset();
    obs::HistogramRegistry::global().reset();
    if (!TraceFile.empty())
      obs::Tracer::global().start();
    if (SlowThresholdUs >= 0 || SlowNodeThreshold > 0 ||
        !SlowLogFile.empty()) {
      obs::SlowQueryOptions SO;
      SO.LatencyThresholdUs = SlowThresholdUs;
      SO.NodeThreshold = SlowNodeThreshold;
      SO.Path = SlowLogFile;
      // --slow-log without a threshold means "capture everything slower
      // than 0µs", i.e. every query — handy for forcing a capture.
      if (SO.LatencyThresholdUs < 0 && SO.NodeThreshold == 0)
        SO.LatencyThresholdUs = 0;
      obs::SlowQueryLog::global().configure(SO);
    }
    if (!ExpoFile.empty())
      obs::armSignalExposition(ExpoFile);
  }

  /// Call after the measured work: writes the Chrome trace, the stats
  /// JSON, and/or the Prometheus exposition when requested. \p Aggregate
  /// is the per-query SolveStats summed over the run. Returns false if any
  /// requested output could not be written.
  bool endObservation(const SolveStats &Aggregate) const {
    bool Ok = true;
    if (!TraceFile.empty()) {
      obs::Tracer::global().stop();
      if (obs::Tracer::global().writeChromeTrace(TraceFile)) {
        std::printf("trace: wrote %zu events to %s\n",
                    obs::Tracer::global().eventCount(), TraceFile.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     TraceFile.c_str());
        Ok = false;
      }
    }
    if (!StatsJsonFile.empty()) {
      std::string Doc = "{\n  \"counters\": ";
      Doc += obs::MetricsRegistry::global().snapshot().json();
      Doc += ",\n  \"histograms\": ";
      Doc += obs::HistogramRegistry::global().snapshot().json();
      Doc += ",\n  \"aggregate\": ";
      Doc += Aggregate.json();
      Doc += "\n}\n";
      std::FILE *F = std::fopen(StatsJsonFile.c_str(), "w");
      if (F) {
        std::fwrite(Doc.data(), 1, Doc.size(), F);
        std::fclose(F);
        std::printf("stats: wrote %s\n", StatsJsonFile.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write stats to %s\n",
                     StatsJsonFile.c_str());
        Ok = false;
      }
    }
    if (!ExpoFile.empty()) {
      if (obs::writePrometheus(ExpoFile)) {
        std::printf("expo: wrote %s\n", ExpoFile.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write exposition to %s\n",
                     ExpoFile.c_str());
        Ok = false;
      }
    }
    return Ok;
  }
};

/// Prints the standard per-phase breakdown table for a run whose summed
/// per-query stats are \p Agg.
inline void printPhaseTable(const SolveStats &Agg) {
  auto Ms = [](int64_t Us) { return static_cast<double>(Us) / 1000.0; };
  std::printf("phase breakdown (summed over queries):\n");
  std::printf("  %-8s %10s\n", "phase", "time(ms)");
  std::printf("  %-8s %10.1f\n", "parse", Ms(Agg.ParseUs));
  std::printf("  %-8s %10.1f\n", "derive", Ms(Agg.DeriveUs));
  std::printf("  %-8s %10.1f\n", "dnf", Ms(Agg.DnfUs));
  std::printf("  %-8s %10.1f\n", "scan", Ms(Agg.ScanUs));
  std::printf("  %-8s %10.1f\n", "search", Ms(Agg.SearchUs));
  std::printf("  %-8s %10.1f\n", "total", Ms(Agg.TotalUs));
  std::printf("  derivatives=%llu dnf-calls=%llu arcs=%llu minterms=%llu\n",
              static_cast<unsigned long long>(Agg.DerivativeCalls),
              static_cast<unsigned long long>(Agg.DnfCalls),
              static_cast<unsigned long long>(Agg.ArcsEnumerated),
              static_cast<unsigned long long>(Agg.MintermsProduced));
}

} // namespace sbd

#endif // SBD_BENCH_BENCHARGS_H

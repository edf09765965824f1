//===- perfbench/Runners.h - The four workloads -----------------------------===//
///
/// \file
/// Each workload drives the solver through one public entry point in a
/// closed loop: one "pass" replays the workload's whole input set, and a
/// run repeats passes until its time is up. End-to-end metrics are medians
/// over passes (latencies: exact percentiles over every timed call), with
/// timings scaled to a nominal host speed by an interleaved reference
/// slice (HostSpeed in Runners.cpp). With tracing on, untraced and traced
/// passes alternate; traced passes time the calls into each layer from
/// this file and split the time inside a checkSat by the SolveStats the
/// program returns.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RUNNERS_H
#define PERFBENCH_RUNNERS_H

#include "Inputs.h"
#include "Report.h"

namespace perfbench {

struct RunConfig {
  Workload W = Workload::CorpusBatch;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Runs one workload on labelled inputs (\p Session for session_replay).
RunReport runWorkload(const RunConfig &C, const std::vector<Query> &Queries,
                      const SessionInputs &Session);

/// Real parallel capacity: work done by \p Threads spinning threads over
/// the work of one, each timed for \p Ms milliseconds.
double spinCapacity(unsigned Threads, int Ms);

} // namespace perfbench

#endif // PERFBENCH_RUNNERS_H

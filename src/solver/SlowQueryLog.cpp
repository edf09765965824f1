//===- solver/SlowQueryLog.cpp - Slow-query explain capture (sbd::obs) ------===//

#include "solver/SlowQueryLog.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>

using namespace sbd;
using namespace sbd::obs;

std::string SlowQueryArtifact::json() const {
  std::string Out = "{\"pattern\": ";
  appendJsonString(Out, Pattern);
  Out += ", \"script\": ";
  appendJsonString(Out, Script);
  Out += ", \"strategy\": ";
  appendJsonString(Out, Strategy);
  Out += ", \"timeout_ms\": " + std::to_string(TimeoutMs);
  Out += ", \"max_states\": " + std::to_string(MaxStates);
  Out += ", \"status\": ";
  appendJsonString(Out, Status);
  Out += ", \"stop_reason\": ";
  appendJsonString(Out, StopReason);
  Out += ", \"total_us\": " + std::to_string(TotalUs);
  Out += ", \"states\": " + std::to_string(States);
  Out += ", \"frontier_stride\": " + std::to_string(FrontierStride);
  Out += ", \"frontier_trace\": [";
  for (size_t I = 0; I != Frontier.size(); ++I) {
    if (I)
      Out += ", ";
    Out += std::to_string(Frontier[I]);
  }
  Out += "], \"top_counters\": {";
  for (size_t I = 0; I != TopCounters.size(); ++I) {
    if (I)
      Out += ", ";
    Out += '"';
    Out += TopCounters[I].first;
    Out += "\": ";
    Out += std::to_string(TopCounters[I].second);
  }
  Out += "}, \"stats\": ";
  Out += StatsJson.empty() ? "{}" : StatsJson;
  Out += ", \"features\": ";
  Out += FeaturesJson.empty() ? "{}" : FeaturesJson;
  Out += '}';
  return Out;
}

/// Log internals: the policy and the ring, all under one mutex — capture
/// only happens for queries already past a slowness threshold, so the lock
/// is nowhere near a hot path.
struct SlowQueryLog::Impl {
  std::mutex Mu;
  SlowQueryOptions Opts;
  std::deque<SlowQueryArtifact> Ring;
};

SlowQueryLog::Impl &SlowQueryLog::impl() {
  // Leaked: an embedder's solver threads may outlive main().
  static Impl *I = new Impl();
  return *I;
}

SlowQueryLog &SlowQueryLog::global() {
  static SlowQueryLog *L = new SlowQueryLog();
  return *L;
}

void SlowQueryLog::configure(const SlowQueryOptions &O) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  I.Opts = O;
  Armed.store(O.LatencyThresholdUs >= 0 || O.NodeThreshold > 0,
              std::memory_order_relaxed);
}

SlowQueryOptions SlowQueryLog::options() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.Opts;
}

bool SlowQueryLog::shouldCapture(int64_t TotalUs, uint64_t ArenaNodes) const {
  if (!armed())
    return false;
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  if (I.Opts.LatencyThresholdUs >= 0 && TotalUs >= I.Opts.LatencyThresholdUs)
    return true;
  return I.Opts.NodeThreshold > 0 && ArenaNodes > I.Opts.NodeThreshold;
}

void SlowQueryLog::capture(SlowQueryArtifact A) {
  Impl &I = impl();
  std::string Path;
  std::string Line;
  {
    std::lock_guard<std::mutex> Lock(I.Mu);
    while (I.Opts.Capacity && I.Ring.size() >= I.Opts.Capacity) {
      I.Ring.pop_front();
      SBD_OBS_INC(SlowQueriesDropped);
    }
    Path = I.Opts.Path;
    if (!Path.empty())
      Line = A.json();
    I.Ring.push_back(std::move(A));
  }
  SBD_OBS_INC(SlowQueriesCaptured);
  if (Path.empty())
    return;
  // File I/O outside the lock: concurrent captures may interleave *lines*,
  // never bytes (single fwrite of a complete line).
  Line += '\n';
  if (std::FILE *F = std::fopen(Path.c_str(), "a")) {
    std::fwrite(Line.data(), 1, Line.size(), F);
    std::fclose(F);
  }
}

std::vector<SlowQueryArtifact> SlowQueryLog::drain() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  std::vector<SlowQueryArtifact> Out(I.Ring.begin(), I.Ring.end());
  I.Ring.clear();
  return Out;
}

size_t SlowQueryLog::size() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.Ring.size();
}

std::vector<std::pair<std::string, uint64_t>>
sbd::obs::topCounterDeltas(const MetricShard &Diff, size_t K) {
  std::vector<std::pair<std::string, uint64_t>> All;
  for (size_t I = 0; I != NumCounters; ++I) {
    if (!Diff.C[I])
      continue;
    const char *Name = counterName(static_cast<Counter>(I));
    size_t Len = std::strlen(Name);
    if (Len >= 8 && std::strcmp(Name + Len - 8, "_time_us") == 0)
      continue;
    All.emplace_back(Name, Diff.C[I]);
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const auto &A, const auto &B) {
                     return A.second > B.second;
                   });
  if (All.size() > K)
    All.resize(K);
  return All;
}

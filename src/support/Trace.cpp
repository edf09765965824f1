//===- support/Trace.cpp - Span/event tracer (sbd::obs) ---------------------===//

#include "support/Trace.h"

#include "support/Json.h"

#include <chrono>
#include <vector>

using namespace sbd;
using namespace sbd::obs;

std::atomic<bool> Tracer::Enabled{false};

namespace {

using SteadyClock = std::chrono::steady_clock;

/// The calling thread's collected events.
thread_local std::vector<TraceEvent> Events;

/// Tracer epoch in steady-clock ticks (set by start()).
std::atomic<SteadyClock::rep> EpochTicks{
    SteadyClock::now().time_since_epoch().count()};

/// Per-thread buffer cap (drop-newest past this). 0 disables the bound.
std::atomic<size_t> MaxEventsPerThread{size_t{1} << 18};

} // namespace

Tracer &Tracer::global() {
  static Tracer T;
  return T;
}

void Tracer::start() {
  clear();
  EpochTicks.store(SteadyClock::now().time_since_epoch().count(),
                   std::memory_order_relaxed);
  Enabled.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { Enabled.store(false, std::memory_order_relaxed); }

void Tracer::clear() { Events.clear(); }

int64_t Tracer::nowUs() const {
  SteadyClock::duration Since =
      SteadyClock::now().time_since_epoch() -
      SteadyClock::duration(EpochTicks.load(std::memory_order_relaxed));
  return std::chrono::duration_cast<std::chrono::microseconds>(Since).count();
}

void Tracer::record(TraceEvent E) {
  if (!active())
    return;
  size_t Max = MaxEventsPerThread.load(std::memory_order_relaxed);
  if (Max && Events.size() >= Max) {
    SBD_OBS_INC(TraceEventsDropped);
    return;
  }
  Events.push_back(std::move(E));
}

void Tracer::setMaxEventsPerThread(size_t Max) {
  MaxEventsPerThread.store(Max, std::memory_order_relaxed);
}

size_t Tracer::maxEventsPerThread() const {
  return MaxEventsPerThread.load(std::memory_order_relaxed);
}

std::string Tracer::chromeTraceJson() {
  std::string Out = "{\"traceEvents\": [";
  bool First = true;
  for (const TraceEvent &E : Events) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  {\"name\": ";
    appendJsonString(Out, E.Name);
    Out += ", \"cat\": ";
    appendJsonString(Out, E.Cat);
    Out += ", \"ph\": \"X\", \"ts\": ";
    Out += std::to_string(E.TsUs);
    Out += ", \"dur\": ";
    Out += std::to_string(E.DurUs);
    Out += ", \"pid\": 1, \"tid\": 1";
    if (!E.Args.empty()) {
      Out += ", \"args\": {";
      Out += E.Args;
      Out += "}";
    }
    Out += "}";
  }
  Out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) {
  std::string Json = chromeTraceJson();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  return Written == Json.size();
}

size_t Tracer::eventCount() { return Events.size(); }

void ScopedSpan::arg(const char *Key, const std::string &Value) {
  if (!Live)
    return;
  if (!Args.empty())
    Args += ", ";
  Args += '"';
  Args += Key;
  Args += "\": ";
  appendJsonString(Args, Value);
}

void ScopedSpan::arg(const char *Key, uint64_t Value) {
  if (!Live)
    return;
  if (!Args.empty())
    Args += ", ";
  Args += '"';
  Args += Key;
  Args += "\": ";
  Args += std::to_string(Value);
}

void ScopedSpan::finish() {
  Tracer &T = Tracer::global();
  int64_t End = T.nowUs();
  T.record({Name, Cat, StartUs, End - StartUs, std::move(Args)});
}

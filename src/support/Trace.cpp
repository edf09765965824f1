//===- support/Trace.cpp - Span/event tracer (sbd::obs) ---------------------===//

#include "support/Trace.h"

#include "support/Json.h"

#include <chrono>
#include <mutex>
#include <vector>

using namespace sbd;
using namespace sbd::obs;

std::atomic<bool> Tracer::Enabled{false};

namespace {

using SteadyClock = std::chrono::steady_clock;

/// One thread's event buffer plus its trace-viewer thread id.
struct TraceBuffer {
  uint32_t Tid = 0;
  std::vector<TraceEvent> Events;
};

} // namespace

/// Tracer internals: per-thread event buffers (lock-free appends) plus the
/// buffers of exited threads, merged at export time.
struct Tracer::Impl {
  std::mutex Mu;
  std::vector<TraceBuffer *> Live;
  std::vector<TraceBuffer> RetiredBufs;
  uint32_t NextTid = 1;
  SteadyClock::time_point Epoch = SteadyClock::now();
  /// Per-thread buffer cap (drop-newest past this); relaxed atomic so the
  /// record() hot path reads it without taking Mu. 0 disables the bound.
  std::atomic<size_t> MaxEventsPerThread{size_t{1} << 18};

  /// Registers this thread's buffer on first traced event; moves it to the
  /// retired list on thread exit so late exports still see its events.
  struct Holder {
    TraceBuffer Buf;
    Impl *Owner;

    explicit Holder(Impl &I) : Owner(&I) {
      std::lock_guard<std::mutex> Lock(Owner->Mu);
      Buf.Tid = Owner->NextTid++;
      Owner->Live.push_back(&Buf);
    }

    ~Holder() {
      std::lock_guard<std::mutex> Lock(Owner->Mu);
      for (auto It = Owner->Live.begin(); It != Owner->Live.end(); ++It) {
        if (*It == &Buf) {
          Owner->Live.erase(It);
          break;
        }
      }
      if (!Buf.Events.empty())
        Owner->RetiredBufs.push_back(std::move(Buf));
    }
  };
};

Tracer::Impl &Tracer::impl() {
  // One leaked instance per process: thread-exit hooks may run after main()
  // returns, so the tracer state must never be destroyed.
  static Impl *I = new Impl();
  return *I;
}

Tracer &Tracer::global() {
  static Tracer *T = new Tracer();
  return *T;
}

void Tracer::start() {
  Impl &I = impl();
  clear();
  {
    std::lock_guard<std::mutex> Lock(I.Mu);
    I.Epoch = SteadyClock::now();
  }
  Enabled.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { Enabled.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  for (TraceBuffer *B : I.Live)
    B->Events.clear();
  I.RetiredBufs.clear();
}

int64_t Tracer::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             SteadyClock::now() - impl().Epoch)
      .count();
}

void Tracer::record(TraceEvent E) {
  if (!active())
    return;
  thread_local Impl::Holder Holder(impl());
  size_t Max = impl().MaxEventsPerThread.load(std::memory_order_relaxed);
  if (Max && Holder.Buf.Events.size() >= Max) {
    SBD_OBS_INC(TraceEventsDropped);
    return;
  }
  Holder.Buf.Events.push_back(std::move(E));
}

void Tracer::setMaxEventsPerThread(size_t Max) {
  impl().MaxEventsPerThread.store(Max, std::memory_order_relaxed);
}

size_t Tracer::maxEventsPerThread() const {
  return impl().MaxEventsPerThread.load(std::memory_order_relaxed);
}

std::string Tracer::chromeTraceJson() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  std::string Out = "{\"traceEvents\": [";
  bool First = true;
  auto emit = [&](const TraceBuffer &B) {
    for (const TraceEvent &E : B.Events) {
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
      Out += ", \"pid\": 1, \"tid\": ";
      Out += std::to_string(B.Tid);
      if (!E.Args.empty()) {
        Out += ", \"args\": {";
        Out += E.Args;
        Out += "}";
      }
      Out += "}";
    }
  };
  for (const TraceBuffer &B : I.RetiredBufs)
    emit(B);
  for (const TraceBuffer *B : I.Live)
    emit(*B);
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

size_t Tracer::eventCount() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  size_t N = 0;
  for (const TraceBuffer &B : I.RetiredBufs)
    N += B.Events.size();
  for (const TraceBuffer *B : I.Live)
    N += B->Events.size();
  return N;
}

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

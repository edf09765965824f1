//===- support/Trace.h - Span/event tracer (sbd::obs) -----------------------===//
///
/// \file
/// The timeline half of the observability subsystem: a lightweight span
/// tracer whose output loads directly into `chrome://tracing` / Perfetto
/// (Chrome `trace_event` JSON, "X" complete events).
///
/// Cost model:
///
///  - Disabled (the default): `ScopedSpan` construction is one relaxed
///    atomic load and a branch; no clock is read, nothing allocates. The
///    `SBD_SPAN` macro additionally compiles to nothing at `-DSBD_OBS=0`.
///  - Enabled: each span reads the monotonic clock twice and appends one
///    event to the calling thread's buffer (one `thread_local` vector, no
///    locks). Export renders the calling thread's events: one solving
///    thread per process (DESIGN.md §7). Span names/categories must be
///    string literals (the tracer stores the pointers).
///
/// Usage:
///
///   obs::Tracer::global().start();
///   ... run queries ...
///   obs::Tracer::global().stop();
///   obs::Tracer::global().writeChromeTrace("out.trace.json");
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_TRACE_H
#define SBD_SUPPORT_TRACE_H

#include "support/Metrics.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace sbd {
namespace obs {

/// One completed span ("X" event). Timestamps are microseconds since the
/// tracer epoch (the last start() call).
struct TraceEvent {
  const char *Name; ///< static string (not copied)
  const char *Cat;  ///< static string (not copied)
  int64_t TsUs;
  int64_t DurUs;
  /// Pre-rendered JSON members for the "args" object (may be empty),
  /// e.g. "\"pattern\": \"a*b\"".
  std::string Args;
};

/// Process-wide tracer switch over per-thread event buffers. Singleton.
class Tracer {
public:
  static Tracer &global();

  /// Fast path for instrumentation sites: is any tracing active?
  static bool active() { return Enabled.load(std::memory_order_relaxed); }

  /// Clears the calling thread's events, resets the epoch, enables
  /// collection.
  void start();
  /// Stops collection (already-collected events are kept for export).
  void stop();
  /// Drops the calling thread's events (start() also does this).
  void clear();

  /// Microseconds since the epoch.
  int64_t nowUs() const;

  /// Appends one event to the calling thread's buffer. No-op when not
  /// enabled. Once a thread's buffer holds maxEventsPerThread() events the
  /// newest events are dropped (the earliest window of a run is the one
  /// that explains it) and `trace_events_dropped` is bumped, so service
  /// style always-on tracing cannot grow memory without bound.
  void record(TraceEvent E);

  /// Per-thread event cap driving the drop policy; 0 means unbounded.
  /// Takes effect for events recorded after the call.
  void setMaxEventsPerThread(size_t Max);
  size_t maxEventsPerThread() const;

  /// Renders the calling thread's events as a Chrome trace_event JSON
  /// document.
  std::string chromeTraceJson();

  /// Writes chromeTraceJson() to \p Path; returns false on I/O error.
  bool writeChromeTrace(const std::string &Path);

  /// Number of events the calling thread collected (diagnostics/tests).
  size_t eventCount();

private:
  Tracer() = default;
  Tracer(const Tracer &) = delete;

  static std::atomic<bool> Enabled;
};

/// RAII span: measures construction→destruction and records it under the
/// tracer when active. When constructed with the tracer off it does
/// nothing — including if the tracer is switched on mid-lifetime.
class ScopedSpan {
public:
  ScopedSpan(const char *SpanName, const char *SpanCat = "sbd")
      : Name(SpanName), Cat(SpanCat), Live(Tracer::active()) {
    if (Live)
      StartUs = Tracer::global().nowUs();
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Attaches a string argument (shown in the trace viewer's args pane).
  /// Cheap no-op when the span is not live. \p Key must be a literal.
  void arg(const char *Key, const std::string &Value);
  /// Attaches a numeric argument.
  void arg(const char *Key, uint64_t Value);

  ~ScopedSpan() {
    if (Live)
      finish();
  }

private:
  void finish();

  const char *Name;
  const char *Cat;
  bool Live;
  int64_t StartUs = 0;
  std::string Args;
};

#if SBD_OBS
#define SBD_OBS_CONCAT2(A, B) A##B
#define SBD_OBS_CONCAT(A, B) SBD_OBS_CONCAT2(A, B)
/// Declares a block-scoped span with a unique name. Usage:
///   SBD_SPAN("checkSat", "solver");
#define SBD_SPAN(NameLit, CatLit)                                              \
  ::sbd::obs::ScopedSpan SBD_OBS_CONCAT(SbdSpan_, __LINE__)(NameLit, CatLit)
#else
#define SBD_SPAN(NameLit, CatLit) ((void)0)
#endif

} // namespace obs
} // namespace sbd

#endif // SBD_SUPPORT_TRACE_H

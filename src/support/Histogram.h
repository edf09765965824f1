//===- support/Histogram.h - Log2-bucketed histogram registry (sbd::obs) ----===//
///
/// \file
/// The distribution half of the observability subsystem: fixed
/// log2-bucketed histograms for latencies and sizes, kept exactly like the
/// counters in support/Metrics.h:
///
///  - The store is one plain `constinit thread_local HistShard` (plain
///    uint64 arrays, no atomics, no locks, no registration); the registry
///    reads and zeroes the calling thread's shard only.
///  - Bucketing is pure integer arithmetic on the value's bit width, so the
///    same workload produces bit-identical bucket counts regardless of
///    scheduling or platform: value 0 lands in bucket 0 and value v > 0
///    lands in bucket bit_width(v), i.e. bucket b holds [2^(b-1), 2^b).
///    Percentiles are read deterministically as the upper bound of the
///    bucket containing the ceil(q*Count)-th sample.
///  - Compile with `-DSBD_OBS=0` to strip every `SBD_OBS_HIST` recording;
///    the registry API stays as a zero-cost shell (all-zero snapshots) so
///    exposition and statistics call sites need no `#if` guards.
///
/// See DESIGN.md §13.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_HISTOGRAM_H
#define SBD_SUPPORT_HISTOGRAM_H

#include "support/Metrics.h"

#include <cstdint>
#include <string>

namespace sbd {
namespace obs {

/// Every histogram the registry tracks. Hot code indexes the shard array
/// directly by these ids — adding a histogram is adding an enumerator plus
/// its name in histName().
enum class Hist : uint32_t {
  SolveLatencyUs,   ///< RegexSolver::checkSat wall-clock per query
  SolveArenaNodes,  ///< regex + TR nodes a query allocated
  DnfExpansionArcs, ///< arcs per δdnf expansion in the search loop
  DistRpcUs,        ///< coordinator-side request→response round trip
  DistQueueDepth,   ///< a worker's queued backlog, sampled at dispatch

  NumHistograms ///< sentinel — keep last
};

constexpr size_t NumHistograms = static_cast<size_t>(Hist::NumHistograms);

/// Log2 buckets: bucket 0 holds value 0, bucket b >= 1 holds [2^(b-1), 2^b).
constexpr size_t NumHistBuckets = 64;

/// Stable snake_case name for JSON/statistics output.
const char *histName(Hist H);

/// Bucket index for a recorded value (see the bucketing rule above).
inline uint32_t histBucket(uint64_t V) {
  if (V == 0)
    return 0;
  uint32_t B = 64u - static_cast<uint32_t>(__builtin_clzll(V));
  return B < NumHistBuckets ? B : NumHistBuckets - 1;
}

/// Inclusive upper bound of a bucket (what percentile queries report).
inline uint64_t histBucketUpperBound(uint32_t B) {
  if (B == 0)
    return 0;
  if (B >= 63)
    return UINT64_MAX;
  return (uint64_t{1} << B) - 1;
}

/// One thread's (or one snapshot's) histogram values. Plain uint64s — never
/// shared while being written.
struct HistShard {
  /// One histogram's accumulated distribution.
  struct Data {
    uint64_t Buckets[NumHistBuckets] = {};
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = UINT64_MAX; ///< meaningful only when Count > 0
    uint64_t Max = 0;

    void record(uint64_t V) {
      Buckets[histBucket(V)] += 1;
      Count += 1;
      Sum += V;
      if (V < Min)
        Min = V;
      if (V > Max)
        Max = V;
    }
  };

  Data H[NumHistograms];

  void record(Hist Id, uint64_t V) { H[static_cast<size_t>(Id)].record(V); }
  const Data &data(Hist Id) const { return H[static_cast<size_t>(Id)]; }
  uint64_t count(Hist Id) const { return data(Id).Count; }

  void reset() { *this = HistShard(); }

  /// {"solve_latency_us": {"count": 3, "sum": 10, "min": 1, "max": 7,
  ///   "p50": 3, "p90": 7, "p99": 7, "buckets": [[1, 1], [3, 1], [7, 1]]},
  ///  ...} — buckets is the sparse [upper_bound, count] list.
  std::string json() const;
};

/// Deterministic percentile read: the inclusive upper bound of the bucket
/// containing the ceil(Pct/100 * Count)-th sample (1-indexed); 0 when the
/// histogram is empty. \p Pct in [1, 100].
uint64_t histPercentile(const HistShard::Data &D, unsigned Pct);

namespace detail {
/// The calling thread's histograms (same constinit contract as TlsShard).
extern constinit thread_local HistShard TlsHistShard;
} // namespace detail

/// The calling thread's histogram shard — the only thing hot paths touch.
inline HistShard &tlsHistShard() { return detail::TlsHistShard; }

/// Read API over the calling thread's histogram shard. Singleton.
class HistogramRegistry {
public:
  static HistogramRegistry &global();

  /// Copy of the calling thread's histograms.
  HistShard snapshot() { return tlsHistShard(); }

  /// Zeroes the calling thread's histograms. Call between benchmark runs.
  void reset() { tlsHistShard().reset(); }

private:
  HistogramRegistry() = default;
  HistogramRegistry(const HistogramRegistry &) = delete;
};

#if SBD_OBS
#define SBD_OBS_HIST(HistId, Value)                                            \
  (::sbd::obs::tlsHistShard().record(::sbd::obs::Hist::HistId,                 \
                                     static_cast<uint64_t>(Value)))
#else
#define SBD_OBS_HIST(HistId, Value) ((void)0)
#endif

} // namespace obs
} // namespace sbd

#endif // SBD_SUPPORT_HISTOGRAM_H

//===- dist/Coordinator.h - Multi-process sharded batch coordinator ---------===//
///
/// \file
/// The coordinator side of the `src/dist` layer (DESIGN.md §16): forks N
/// worker processes (each a `runWorker` loop over a Unix socketpair) and
/// drives the query stream through them.
///
/// Scheduling model:
///
///  - *Sharding.* Every query is parsed on a coordinator-local arena and
///    hashed by its canonical verdict key (`cache::canonicalVerdictKey` —
///    the same string the per-worker verdict caches key on), so
///    similarity-equal queries land on the same shard and each worker's
///    cache warms exactly for its shard: `shard = H(key) % K`,
///    `worker = shard % N`.
///  - *Admission control.* At most `MaxInFlightPerWorker` requests are on
///    any worker's socket; the rest wait in per-worker queues. A streaming
///    submitter is backpressured: `submit()` pumps the event loop until the
///    total backlog drops below the admission bound.
///  - *Work stealing.* A worker whose queue runs dry steals the
///    longest queue's tail, so a skewed shard hash cannot idle workers.
///  - *Robustness.* Per-query RPC timeout (the stuck worker is killed),
///    worker-crash detection via socket EOF, and requeue-once semantics:
///    an in-flight query lost to a crash is replayed on a surviving
///    worker; lost a second time it is finalized as Unknown rather than
///    requeued forever. Unsent queued work is redistributed without
///    counting as a requeue. If every worker dies, one is respawned.
///
/// Results are returned in submission order and are byte-identical to a
/// 1-process run: workers solve each query on a fresh stack (see Worker.h)
/// and term order is independent of arena history, so verdicts and
/// witnesses cannot depend on worker count, scheduling, or steals — the
/// `dist_consistency` law and CI gate pin this.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_DIST_COORDINATOR_H
#define SBD_DIST_COORDINATOR_H

#include "dist/Worker.h"
#include "portfolio/BatchSolver.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace sbd {
namespace dist {

/// Coordinator configuration.
struct DistOptions {
  /// Worker processes to fork.
  unsigned NumWorkers = 4;
  /// Shard count for the canonical-hash → worker mapping. 0 means
  /// NumWorkers. More shards than workers smooths a skewed hash.
  unsigned NumShards = 0;
  /// Admission bound: requests on one worker's socket at once.
  unsigned MaxInFlightPerWorker = 4;
  /// Per-request round-trip budget. A worker that holds a request longer
  /// is presumed wedged and killed (its work is requeued once). 0 disables.
  int64_t RpcTimeoutMs = 0;
  /// Forwarded to every worker process (arena reuse, cache capacity).
  WorkerConfig Worker;

  /// Test hook: give worker \p CrashWorkerIndex a `CrashAtRequest` of
  /// \p CrashAtRequest (see WorkerConfig) to exercise the crash/requeue
  /// path deterministically. ~0u disables.
  unsigned CrashWorkerIndex = ~0u;
  size_t CrashAtRequest = 0;
};

/// Scheduling/robustness counters for one DistSolver run (the same events
/// also feed the process-wide `sbd::obs` registry under dist_*).
struct DistStats {
  uint64_t Dispatched = 0;    ///< requests sent over a socket
  uint64_t Steals = 0;        ///< requests dispatched off their home queue
  uint64_t Requeues = 0;      ///< in-flight requests replayed after a crash
  uint64_t WorkerCrashes = 0; ///< workers lost (crash or timeout kill)
  uint64_t Timeouts = 0;      ///< requests that exceeded RpcTimeoutMs
  uint64_t Respawns = 0;      ///< workers forked after total loss
  uint64_t Lost = 0;          ///< requests finalized Unknown after 2 losses
};

/// Multi-process batch solver: BatchSolver's contract (queries in,
/// submission-ordered BatchResults out) across forked worker processes.
class DistSolver {
public:
  explicit DistSolver(const DistOptions &Options = {});
  ~DistSolver(); ///< kills any still-running workers (use drain() for grace)
  DistSolver(const DistSolver &) = delete;
  DistSolver &operator=(const DistSolver &) = delete;

  /// Enqueues one query; returns its submission index. Blocks pumping the
  /// event loop while the backlog exceeds the admission bound.
  uint64_t submit(const BatchQuery &Q);

  /// Runs the loop until every submitted query has a result, then drains
  /// the workers (Shutdown frames, EOF, waitpid). Returns results in
  /// submission order. The solver is finished afterwards: submit() may not
  /// be called again.
  std::vector<BatchResult> drain();

  /// submit() everything, then drain().
  std::vector<BatchResult> solveAll(const std::vector<BatchQuery> &Queries);

  /// Scheduling counters accumulated so far.
  const DistStats &stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace dist
} // namespace sbd

#endif // SBD_DIST_COORDINATOR_H

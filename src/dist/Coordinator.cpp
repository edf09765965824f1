//===- dist/Coordinator.cpp - Multi-process sharded batch coordinator -------===//

#include "dist/Coordinator.h"

#include "cache/VerdictCache.h"
#include "dist/Protocol.h"
#include "re/RegexParser.h"
#include "support/Hashing.h"
#include "support/Histogram.h"
#include "support/Stopwatch.h"

#include <cerrno>
#include <csignal>
#include <deque>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>

using namespace sbd;
using namespace sbd::dist;

namespace {

uint64_t hashBytes(const std::string &S) {
  uint64_t H = 0x5bd1e995u;
  for (char Ch : S)
    H = hashCombine(H, static_cast<uint8_t>(Ch));
  return hashMix(H);
}

} // namespace

//===----------------------------------------------------------------------===//
// DistSolver::Impl
//===----------------------------------------------------------------------===//

struct DistSolver::Impl {
  /// One submitted query's lifecycle. Queued → Sent → Done; a crash can
  /// bounce Sent back to Queued exactly once (Requeued).
  struct Pending {
    BatchQuery Q;
    unsigned Shard = 0;
    enum { Queued, Sent, Done } State = Queued;
    bool Requeued = false;
    int64_t SentAtUs = 0;
    BatchResult Result;
  };

  /// One forked worker process as the coordinator sees it.
  struct WorkerProc {
    pid_t Pid = -1;
    int Fd = -1;
    bool Alive = false;
    bool Ready = false; ///< Ready frame received; requests may be sent
    FrameReader Reader;
    std::vector<uint8_t> OutBuf; ///< bytes not yet accepted by the socket
    size_t OutPos = 0;
    std::deque<uint64_t> Queue;    ///< homed, not yet dispatched
    std::vector<uint64_t> InFlight; ///< dispatched, awaiting response
  };

  DistOptions Opts;
  DistStats Stats;
  std::vector<WorkerProc> Workers;
  std::vector<Pending> Queries;
  size_t DoneCount = 0;
  bool Drained = false;
  Stopwatch Clock;

  /// Coordinator-local arena for shard hashing only (recycled periodically
  /// to bound memory; no handle outlives one submit call). Keys are
  /// canonical prints, which do not depend on what it parsed before.
  std::unique_ptr<RegexManager> ShardM = std::make_unique<RegexManager>();
  size_t ShardParses = 0;

  explicit Impl(const DistOptions &O) : Opts(O) {
    if (Opts.NumWorkers == 0)
      Opts.NumWorkers = 1;
    if (Opts.NumShards == 0)
      Opts.NumShards = Opts.NumWorkers;
    if (Opts.MaxInFlightPerWorker == 0)
      Opts.MaxInFlightPerWorker = 1;
    Workers.resize(Opts.NumWorkers);
    for (unsigned I = 0; I != Opts.NumWorkers; ++I)
      spawnWorker(I, /*Respawn=*/false);
  }

  ~Impl() {
    for (WorkerProc &W : Workers) {
      if (!W.Alive)
        continue;
      ::kill(W.Pid, SIGKILL);
      ::close(W.Fd);
      int Status = 0;
      ::waitpid(W.Pid, &Status, 0);
      W.Alive = false;
    }
  }

  size_t outstanding() const { return Queries.size() - DoneCount; }

  //===--------------------------------------------------------------------===//
  // Process management
  //===--------------------------------------------------------------------===//

  void spawnWorker(unsigned Index, bool Respawn) {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return; // worker stays dead; scheduling routes around it
    pid_t Pid = ::fork();
    if (Pid < 0) {
      ::close(Fds[0]);
      ::close(Fds[1]);
      return;
    }
    if (Pid == 0) {
      // Child: drop every coordinator-side fd inherited from the parent —
      // a sibling holding another worker's socket end would mask that
      // worker's EOF — then run the loop and exit without atexit handlers.
      ::close(Fds[0]);
      for (const WorkerProc &W : Workers)
        if (W.Fd >= 0)
          ::close(W.Fd);
      WorkerConfig Config = Opts.Worker;
      if (!Respawn && Index == Opts.CrashWorkerIndex)
        Config.CrashAtRequest = Opts.CrashAtRequest;
      ::_exit(runWorker(Fds[1], Fds[1], Config));
    }
    ::close(Fds[1]);
    ::fcntl(Fds[0], F_SETFL,
            ::fcntl(Fds[0], F_GETFL, 0) | O_NONBLOCK);
    WorkerProc &W = Workers[Index];
    W.Pid = Pid;
    W.Fd = Fds[0];
    W.Alive = true;
    W.Ready = false;
    W.Reader = FrameReader();
    W.OutBuf.clear();
    W.OutPos = 0;
    if (Respawn)
      ++Stats.Respawns;
  }

  unsigned aliveCount() const {
    unsigned N = 0;
    for (const WorkerProc &W : Workers)
      N += W.Alive ? 1 : 0;
    return N;
  }

  /// First alive worker at or after \p From (mod N); -1 when all are dead.
  int firstAlive(unsigned From) const {
    unsigned N = static_cast<unsigned>(Workers.size());
    for (unsigned K = 0; K != N; ++K) {
      unsigned I = (From + K) % N;
      if (Workers[I].Alive)
        return static_cast<int>(I);
    }
    return -1;
  }

  //===--------------------------------------------------------------------===//
  // Crash handling: requeue-once, redistribute, respawn on total loss
  //===--------------------------------------------------------------------===//

  void finalizeLost(uint64_t Id) {
    Pending &P = Queries[Id];
    P.Result = BatchResult();
    P.Result.ParseOk = true;
    P.Result.Result.Status = SolveStatus::Unknown;
    P.Result.Result.Note =
        "query lost to repeated worker crashes (requeue-once exhausted)";
    P.State = Pending::Done;
    ++DoneCount;
    ++Stats.Lost;
  }

  void crashWorker(unsigned Index) {
    WorkerProc &W = Workers[Index];
    if (!W.Alive)
      return;
    W.Alive = false;
    W.Ready = false;
    ::close(W.Fd);
    W.Fd = -1;
    int Status = 0;
    ::waitpid(W.Pid, &Status, 0);
    ++Stats.WorkerCrashes;
    SBD_OBS_INC(DistWorkerCrashes);

    std::vector<uint64_t> ToRequeue;
    for (uint64_t Id : W.InFlight) {
      Pending &P = Queries[Id];
      if (P.State != Pending::Sent)
        continue;
      if (P.Requeued) {
        finalizeLost(Id);
      } else {
        P.Requeued = true;
        P.State = Pending::Queued;
        ++Stats.Requeues;
        SBD_OBS_INC(DistRequeues);
        ToRequeue.push_back(Id);
      }
    }
    W.InFlight.clear();
    std::deque<uint64_t> Unsent;
    Unsent.swap(W.Queue);

    if ((!ToRequeue.empty() || !Unsent.empty() || outstanding()) &&
        aliveCount() == 0)
      spawnWorker(Index, /*Respawn=*/true);

    // Requeued work goes to the front (it has already waited one full
    // round trip); unsent work keeps its order at the back.
    for (uint64_t Id : ToRequeue) {
      int T = firstAlive(Index + 1);
      if (T < 0)
        finalizeLost(Id); // respawn failed too: give the query up
      else
        Workers[T].Queue.push_front(Id);
    }
    for (uint64_t Id : Unsent) {
      int T = firstAlive(Index + 1);
      if (T < 0) {
        finalizeLost(Id);
      } else {
        Workers[T].Queue.push_back(Id);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Socket I/O
  //===--------------------------------------------------------------------===//

  /// Pushes buffered bytes into the socket until it would block. Returns
  /// false when the peer is gone (caller crashes the worker).
  bool flushOut(WorkerProc &W) {
    while (W.OutPos < W.OutBuf.size()) {
      ssize_t N = ::send(W.Fd, W.OutBuf.data() + W.OutPos,
                         W.OutBuf.size() - W.OutPos, MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          return true;
        return false;
      }
      W.OutPos += static_cast<size_t>(N);
    }
    W.OutBuf.clear();
    W.OutPos = 0;
    return true;
  }

  /// Drains readable bytes and processes every complete frame. Returns
  /// false on EOF/protocol error (caller crashes the worker).
  bool readWorker(unsigned Index) {
    WorkerProc &W = Workers[Index];
    uint8_t Chunk[1 << 16];
    for (;;) {
      ssize_t N = ::recv(W.Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          break;
        return false;
      }
      if (N == 0)
        return false; // EOF: the worker is gone
      W.Reader.feed(Chunk, static_cast<size_t>(N));
      if (N < static_cast<ssize_t>(sizeof(Chunk)))
        break;
    }
    Frame F;
    while (W.Reader.next(F)) {
      switch (F.Type) {
      case FrameType::Ready:
        W.Ready = true;
        break;
      case FrameType::Response: {
        std::optional<WireResponse> Resp = decodeResponse(F.Payload);
        if (!Resp)
          return false;
        handleResponse(W, *Resp);
        break;
      }
      case FrameType::Request:
      case FrameType::Shutdown:
        return false; // workers never send these
      }
    }
    return !W.Reader.error();
  }

  void handleResponse(WorkerProc &W, const WireResponse &Resp) {
    if (Resp.Id >= Queries.size())
      return;
    for (size_t I = 0; I != W.InFlight.size(); ++I) {
      if (W.InFlight[I] == Resp.Id) {
        W.InFlight.erase(W.InFlight.begin() + static_cast<ptrdiff_t>(I));
        break;
      }
    }
    Pending &P = Queries[Resp.Id];
    if (P.State == Pending::Done)
      return; // stale duplicate; first verdict wins
    P.Result = Resp.Result;
    P.State = Pending::Done;
    ++DoneCount;
    SBD_OBS_HIST(DistRpcUs, Clock.elapsedUs() - P.SentAtUs);
  }

  //===--------------------------------------------------------------------===//
  // Dispatch + stealing
  //===--------------------------------------------------------------------===//

  /// Pops the next request id for worker \p Index: its own queue first,
  /// then the tail of the longest queue anywhere (a steal).
  bool popWork(unsigned Index, uint64_t &Id) {
    WorkerProc &W = Workers[Index];
    if (!W.Queue.empty()) {
      Id = W.Queue.front();
      W.Queue.pop_front();
      return true;
    }
    size_t Victim = Workers.size(), Longest = 0;
    for (size_t I = 0; I != Workers.size(); ++I) {
      if (I == Index)
        continue;
      if (Workers[I].Queue.size() > Longest) {
        Longest = Workers[I].Queue.size();
        Victim = I;
      }
    }
    if (Victim == Workers.size())
      return false;
    Id = Workers[Victim].Queue.back();
    Workers[Victim].Queue.pop_back();
    ++Stats.Steals;
    SBD_OBS_INC(DistSteals);
    return true;
  }

  void dispatch() {
    for (unsigned I = 0; I != Workers.size(); ++I) {
      WorkerProc &W = Workers[I];
      if (!W.Alive || !W.Ready)
        continue;
      while (W.InFlight.size() < Opts.MaxInFlightPerWorker) {
        uint64_t Id;
        if (!popWork(I, Id))
          break;
        Pending &P = Queries[Id];
        WireRequest Req;
        Req.Id = Id;
        Req.Pattern = P.Q.Pattern;
        Req.Opts = P.Q.Opts;
        encodeRequest(W.OutBuf, Req);
        P.State = Pending::Sent;
        P.SentAtUs = Clock.elapsedUs();
        W.InFlight.push_back(Id);
        ++Stats.Dispatched;
        SBD_OBS_INC(DistDispatched);
        SBD_OBS_HIST(DistQueueDepth, W.Queue.size());
        if (!flushOut(W)) {
          crashWorker(I);
          break;
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Event loop
  //===--------------------------------------------------------------------===//

  /// One poll round: dispatch what fits, wait for socket events (bounded
  /// by \p TimeoutMs and the earliest RPC deadline), handle them.
  void pump(int TimeoutMs) {
    dispatch();
    if (DoneCount == Queries.size())
      return;

    std::vector<pollfd> Pfds;
    std::vector<unsigned> PfdWorker;
    for (unsigned I = 0; I != Workers.size(); ++I) {
      WorkerProc &W = Workers[I];
      if (!W.Alive)
        continue;
      pollfd P{};
      P.fd = W.Fd;
      P.events = POLLIN;
      if (W.OutPos < W.OutBuf.size())
        P.events |= POLLOUT;
      Pfds.push_back(P);
      PfdWorker.push_back(I);
    }
    if (Pfds.empty()) {
      // Everyone died at once with the loop idle; crashWorker() respawns
      // on the next crash path, but reach here only if spawn failed.
      int T = firstAlive(0);
      if (T < 0 && outstanding())
        spawnWorker(0, /*Respawn=*/true);
      return;
    }

    int Timeout = TimeoutMs;
    if (Opts.RpcTimeoutMs > 0) {
      int64_t Earliest = -1;
      for (const WorkerProc &W : Workers)
        for (uint64_t Id : W.InFlight)
          if (Earliest < 0 || Queries[Id].SentAtUs < Earliest)
            Earliest = Queries[Id].SentAtUs;
      if (Earliest >= 0) {
        int64_t DeadlineMs =
            (Earliest + Opts.RpcTimeoutMs * 1000 - Clock.elapsedUs()) / 1000 +
            1;
        if (DeadlineMs < 0)
          DeadlineMs = 0;
        if (Timeout < 0 || DeadlineMs < Timeout)
          Timeout = static_cast<int>(DeadlineMs);
      }
    }

    int N = ::poll(Pfds.data(), Pfds.size(), Timeout);
    if (N < 0 && errno != EINTR)
      return;

    for (size_t K = 0; K != Pfds.size(); ++K) {
      unsigned I = PfdWorker[K];
      WorkerProc &W = Workers[I];
      if (!W.Alive)
        continue; // crashed while handling an earlier fd this round
      if (Pfds[K].revents & POLLOUT) {
        if (!flushOut(W)) {
          crashWorker(I);
          continue;
        }
      }
      if (Pfds[K].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!readWorker(I))
          crashWorker(I);
      }
    }

    // RPC deadline sweep: a worker sitting on an expired request is
    // presumed wedged — kill it so the crash path requeues its work.
    if (Opts.RpcTimeoutMs > 0) {
      int64_t Now = Clock.elapsedUs();
      for (unsigned I = 0; I != Workers.size(); ++I) {
        WorkerProc &W = Workers[I];
        if (!W.Alive)
          continue;
        bool Expired = false;
        for (uint64_t Id : W.InFlight) {
          if (Queries[Id].State == Pending::Sent &&
              Now - Queries[Id].SentAtUs > Opts.RpcTimeoutMs * 1000) {
            Expired = true;
            break;
          }
        }
        if (Expired) {
          ++Stats.Timeouts;
          SBD_OBS_INC(DistTimeouts);
          ::kill(W.Pid, SIGKILL);
          crashWorker(I);
        }
      }
    }

    dispatch();
  }

  //===--------------------------------------------------------------------===//
  // Submission + drain
  //===--------------------------------------------------------------------===//

  unsigned shardOf(const BatchQuery &Q) {
    // Recycle the hashing arena periodically — handles never escape this
    // function, so a reset only costs re-interning.
    if (++ShardParses % 512 == 0)
      ShardM = std::make_unique<RegexManager>();
    RegexParseResult Parsed = parseRegex(*ShardM, Q.Pattern);
    std::string Key;
    if (Parsed.Ok)
      Key = cache::canonicalVerdictKey(*ShardM, Parsed.Value, Q.Opts);
    if (Key.empty())
      Key = Q.Pattern; // unparseable or oversized: shard by surface syntax
    return static_cast<unsigned>(hashBytes(Key) % Opts.NumShards);
  }

  uint64_t submit(const BatchQuery &Q) {
    uint64_t Id = Queries.size();
    unsigned Shard = shardOf(Q);
    Pending P;
    P.Q = Q;
    P.Shard = Shard;
    Queries.push_back(std::move(P));
    unsigned HomeSlot = Shard % Opts.NumWorkers;
    int Home = firstAlive(HomeSlot);
    if (Home < 0) {
      spawnWorker(HomeSlot, /*Respawn=*/true);
      Home = firstAlive(HomeSlot);
    }
    if (Home < 0) {
      finalizeLost(Id);
      return Id;
    }
    Workers[Home].Queue.push_back(Id);

    // Backpressure: hold the submitter inside the event loop until the
    // backlog fits the admission bound again.
    size_t Bound =
        size_t{Opts.MaxInFlightPerWorker} * Workers.size() * 4 + 16;
    pump(0);
    while (outstanding() > Bound)
      pump(100);
    return Id;
  }

  std::vector<BatchResult> drain() {
    while (DoneCount < Queries.size())
      pump(200);
    // Graceful shutdown: one Shutdown frame each, flushed, then EOF.
    for (unsigned I = 0; I != Workers.size(); ++I) {
      WorkerProc &W = Workers[I];
      if (!W.Alive)
        continue;
      encodeShutdown(W.OutBuf);
      // The socket buffer trivially fits one 5-byte frame; poll out the
      // backlog if an earlier write was short.
      while (W.OutPos < W.OutBuf.size()) {
        pollfd P{};
        P.fd = W.Fd;
        P.events = POLLOUT;
        if (::poll(&P, 1, 1000) <= 0)
          break;
        if (!flushOut(W))
          break;
      }
      if (W.OutPos >= W.OutBuf.size())
        flushOut(W);
      ::close(W.Fd);
      W.Fd = -1;
      int Status = 0;
      ::waitpid(W.Pid, &Status, 0);
      W.Alive = false;
    }
    Drained = true;
    std::vector<BatchResult> Out;
    Out.reserve(Queries.size());
    for (Pending &P : Queries)
      Out.push_back(std::move(P.Result));
    return Out;
  }
};

//===----------------------------------------------------------------------===//
// DistSolver facade
//===----------------------------------------------------------------------===//

DistSolver::DistSolver(const DistOptions &Options)
    : I(std::make_unique<Impl>(Options)) {}

DistSolver::~DistSolver() = default;

uint64_t DistSolver::submit(const BatchQuery &Q) { return I->submit(Q); }

std::vector<BatchResult> DistSolver::drain() { return I->drain(); }

std::vector<BatchResult>
DistSolver::solveAll(const std::vector<BatchQuery> &Queries) {
  for (const BatchQuery &Q : Queries)
    submit(Q);
  return drain();
}

const DistStats &DistSolver::stats() const { return I->Stats; }

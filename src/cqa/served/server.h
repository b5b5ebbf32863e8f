// cqa::served -- the multi-process sharded front door.
//
//                        +----------------------------+
//   client ---frame--->  |  router (this process)     |
//   client ---frame--->  |   - query -> shard         |   socketpair
//   client ---frame--->  |   - admission / shed       | <---------> worker 0
//                        |   - disk result cache      | <---------> worker 1
//                        |   - crash containment      | <---------> worker N-1
//                        +----------------------------+    (forked processes)
//
// Server::start() forks N worker processes, each owning a full Session
// (engines + pool + EvalCache + serve::Scheduler), then serves client
// connections on a TCP or unix-domain socket. Every incoming request is
// routed by a hash of its kind, query, output variables and bindings,
// so duplicates coalesce on one worker *across* client connections, and
// variants that differ only in epsilon, deadline, quota or seed meet
// that worker's exact-volume cache and Monte-Carlo grouping. The disk
// cache keys on the full serve::request_fingerprint.
//
// The shed-to-certified-trivial-1/2 ladder holds end-to-end:
//
//   - Admission: a shard over its in-flight capacity (or down while
//     respawning) sheds volume requests to the last rung -- honest
//     [0, 1] bars, guard.shed = true -- and answers non-degradable
//     kinds with typed kResourceExhausted, computed at the router
//     without touching any engine.
//   - Crash containment: a worker dying on a pathological query (FM
//     blowup, OOM kill, kill -9) costs one shard. The per-shard
//     supervisor thread reaps the corpse, degrades every in-flight
//     request on that shard honestly (volume -> trivial-1/2 with
//     guard.worker_crashed = true, others -> typed error; nothing ever
//     hangs), forks a replacement, and the shard is back.
//   - Hang containment: a worker that stops making progress without
//     dying (SIGSTOP, scheduler livelock, a wedged syscall) is caught
//     by the watchdog. Workers publish a monotonic heartbeat and an
//     in-flight progress counter into a per-shard slot of a MAP_SHARED
//     page mapped before the forks; the supervisor polls it, and a
//     shard frozen past watchdog_budget_ms is escalated -- SIGTERM,
//     a timed wait, then SIGKILL -- its in-flight degraded honestly
//     (guard.worker_hung = true), and respawned. Same one-shard blast
//     radius as a crash; the flag names the escalation path.
//   - Persistence: full-fidelity answers land in a disk-backed result
//     cache keyed by the fingerprint (checksummed records, versioned
//     header, corrupt-tail tolerance), so a restarted server serves its
//     hot set without recomputing. It is the only on-disk state: a
//     worker's EvalCache lives and dies with its process.
//
// The Server object is also usable in-process (tests, benches spawn it
// directly); tools/cqa_served wraps it in a binary.

#ifndef CQA_SERVED_SERVER_H_
#define CQA_SERVED_SERVER_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cqa/runtime/session.h"
#include "cqa/served/disk_cache.h"
#include "cqa/served/wire.h"
#include "cqa/util/status.h"

namespace cqa {
namespace served {

struct ServedOptions {
  /// Worker processes (= shards). Each owns a Session.
  std::size_t workers = 4;
  /// Non-empty: listen on this unix-domain socket path (unlinked and
  /// rebound at start). Empty: listen on TCP.
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;  // 0 = ephemeral; see Server::port()
  /// Per-shard in-flight cap before the router sheds at admission.
  std::size_t shard_capacity = 256;
  /// Non-empty: persistent result cache file (the router's DiskCache,
  /// the only file a stopped fleet leaves behind).
  std::string cache_path;
  std::size_t cache_capacity = 4096;
  /// > 0 arms the hung-worker watchdog: a shard whose heartbeat
  /// freezes, or that holds in-flight requests without completing any,
  /// past this budget is killed (SIGTERM -> term_grace_ms -> SIGKILL),
  /// its in-flight resolved honestly with guard.worker_hung, and
  /// respawned. Must exceed the worst-case latency of a single request
  /// -- the watchdog cannot tell a wedged worker from a slow one. 0
  /// (default) disarms it, so long exact sweeps are never killed by a
  /// server that did not opt in.
  std::int64_t watchdog_budget_ms = 0;
  /// Supervisor poll / worker heartbeat cadence while the watchdog is
  /// armed.
  std::int64_t watchdog_interval_ms = 100;
  /// Escalation grace between SIGTERM and SIGKILL. SIGTERM cannot wake
  /// a SIGSTOPped worker (it stays pending), so SIGKILL is always the
  /// last rung.
  std::int64_t term_grace_ms = 500;
  /// Per-worker Session/Scheduler knobs. Defaults are sized for a
  /// fleet: small pools beat one oversubscribed process.
  SessionOptions session;

  ServedOptions() {
    session.threads = 2;
    session.serve_executors = 2;
  }
};

/// Router-side counters (worker-side metrics travel in stats frames).
struct ServerStats {
  std::uint64_t requests = 0;        // request frames admitted or shed
  std::uint64_t answers = 0;         // answers forwarded from workers
  std::uint64_t shed = 0;            // shed at admission (capacity/down)
  std::uint64_t crash_degraded = 0;  // in-flight degraded by a crash
  std::uint64_t respawns = 0;        // workers refleeted after death
  std::uint64_t cache_hits = 0;      // served straight from DiskCache
  std::uint64_t hung_kills = 0;      // workers escalated by the watchdog
  std::uint64_t hung_degraded = 0;   // in-flight degraded by a hang
};

class Server {
 public:
  explicit Server(ServedOptions options);
  ~Server();  // stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, forks the fleet, starts router threads. Fails (kInternal)
  /// on socket errors; the fleet is torn down on failure.
  Status start();

  /// Stops accepting, closes every connection, shuts the fleet down
  /// (workers exit on EOF and are reaped), joins all threads.
  /// Idempotent.
  void stop();

  /// Resolved TCP port (after start(), TCP mode only).
  std::uint16_t port() const { return resolved_port_; }

  std::size_t worker_count() const { return workers_.size(); }
  /// Current pid of a shard's worker (test seam for kill -9).
  pid_t worker_pid(std::size_t shard) const;
  /// The shard a request routes to, by kind, query, output variables
  /// and bindings (test seam: aim a kill at the shard that serves a
  /// known query).
  std::size_t shard_of(const Request& request) const;

  ServerStats stats() const;
  DiskCacheStats cache_stats() const;

  /// Connections not yet reaped (test seam: closed connections must not
  /// accumulate for the server's lifetime).
  std::size_t live_connections() const;

 private:
  struct ClientConn {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
    /// Reader thread has exited and closed fd; the acceptor's sweep may
    /// join the thread and drop the conn.
    std::atomic<bool> done{false};
    std::thread::id tid;  // set under conns_mu_ at accept
  };
  using ClientConnPtr = std::shared_ptr<ClientConn>;

  /// Rendezvous for router-internal worker queries (stats fan-out).
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Frame frame;
  };

  /// One in-flight request the router forwarded to a worker.
  struct Pending {
    ClientConnPtr conn;            // null when waiter is set
    std::shared_ptr<Waiter> waiter;
    std::uint64_t client_id = 0;
    std::size_t shard = 0;
    RequestKind kind = RequestKind::kVolume;
    std::string fingerprint;       // cache key ("" = don't cache)
    bool counted = false;          // holds a slot of the shard's capacity
    std::uint64_t generation = 0;  // worker generation that counted it
  };

  /// One shard's liveness signals, a slot of a MAP_SHARED|MAP_ANONYMOUS
  /// page mapped before the forks (armed watchdog only). The worker
  /// publishes, the supervisor reads; both sides use relaxed atomics --
  /// the watchdog needs freshness on a human timescale, not ordering.
  struct WatchSlot {
    /// Bumped by the worker's heartbeat thread every
    /// watchdog_interval_ms. Frozen = the whole process is stopped or
    /// starved (SIGSTOP, swap death).
    alignas(64) std::atomic<std::uint64_t> beat{0};
    /// Bumped per frame handled and per answer completed. Frozen while
    /// in_flight > 0 = the engines are wedged even though the heartbeat
    /// thread still runs (livelock, stuck syscall).
    std::atomic<std::uint64_t> progress{0};
  };

  /// Why a request degraded without reaching (or surviving) a worker;
  /// picks the guard flag on the honest trivial-1/2 answer.
  enum class DegradeReason { kShed, kCrashed, kHung };

  /// One shard: a forked worker process plus its supervisor state.
  struct Worker {
    mutable std::mutex mu;  // guards fd/pid/alive/generation + writes
    int fd = -1;
    pid_t pid = -1;
    bool alive = false;
    /// Bumped by the supervisor's crash sweep when it zeroes in_flight.
    /// A slow path may only decrement in_flight for a Pending entry it
    /// erased whose generation still matches, so a racing sweep+respawn
    /// never has a stale decrement charged to the fresh worker.
    std::uint64_t generation = 0;
    std::atomic<std::size_t> in_flight{0};
    std::thread supervisor;
  };

  Status bind_listener();
  Status spawn_worker(std::size_t shard);
  [[noreturn]] void worker_main(int fd, std::size_t shard);

  void accept_loop();
  void client_loop(ClientConnPtr conn);
  void supervisor_loop(std::size_t shard);
  /// Joins finished client threads and drops their closed conns, so a
  /// long-lived server with short-lived connections stays bounded.
  void reap_connections();

  void handle_request(const ClientConnPtr& conn, const Frame& frame);
  void handle_stats(const ClientConnPtr& conn, const Frame& frame);

  /// Sends a frame on a client connection (no-op once closed).
  void send_to_client(const ClientConnPtr& conn, MsgType type,
                      std::uint64_t id, const std::string& payload);
  /// Resolves one pending entry with an already-encoded answer.
  void resolve_pending(Pending&& entry, MsgType type,
                       const std::string& payload);
  /// Returns a counted entry's admission slot, unless a crash sweep
  /// already reclaimed it wholesale (generation mismatch).
  static void release_slot(Worker& w, const Pending& entry);
  /// The honest no-engine answer for a request that cannot reach (or
  /// did not survive) a worker: volume -> trivial-1/2 with the guard
  /// flag `why` names, other kinds -> typed kResourceExhausted.
  static std::string degraded_payload(RequestKind kind, DegradeReason why);
  /// Timed reap: polls waitpid(WNOHANG) for up to grace_ms, then
  /// SIGKILLs and reaps the guaranteed corpse. Never blocks unboundedly
  /// on a child that is still alive (a hung worker would wedge the
  /// supervisor -- the exact disease the watchdog exists to cure).
  static void reap_worker(pid_t pid, std::int64_t grace_ms);

  ServedOptions options_;
  std::unique_ptr<DiskCache> cache_;

  int listener_ = -1;
  std::uint16_t resolved_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Worker>> workers_;

  /// Per-shard liveness slots (armed watchdog only; else null). Mapped
  /// MAP_SHARED before the first fork so every worker and the router
  /// see the same page; unmapped in stop().
  WatchSlot* watch_ = nullptr;
  std::size_t watch_bytes_ = 0;

  std::thread acceptor_;
  mutable std::mutex conns_mu_;
  std::vector<ClientConnPtr> conns_;
  std::vector<std::thread> conn_threads_;

  std::mutex pending_mu_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::atomic<std::uint64_t> next_id_{1};

  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> answers_total_{0};
  std::atomic<std::uint64_t> shed_total_{0};
  std::atomic<std::uint64_t> crash_degraded_total_{0};
  std::atomic<std::uint64_t> respawn_total_{0};
  std::atomic<std::uint64_t> cache_hit_total_{0};
  std::atomic<std::uint64_t> hung_kill_total_{0};
  std::atomic<std::uint64_t> hung_degraded_total_{0};
};

}  // namespace served
}  // namespace cqa

#endif  // CQA_SERVED_SERVER_H_

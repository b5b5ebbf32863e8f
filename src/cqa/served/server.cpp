#include "cqa/served/server.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "cqa/approx/random.h"
#include "cqa/core/constraint_database.h"
#include "cqa/plan/planner.h"
#include "cqa/serve/scheduler.h"
#include "cqa/util/bincode.h"

#if defined(__SANITIZE_THREAD__)
#define CQA_SERVED_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CQA_SERVED_TSAN 1
#endif
#endif

#ifdef CQA_SERVED_TSAN
// Respawning a dead worker forks from the (multithreaded) router; TSan's
// default is to kill the child outright after a fork-from-threads. The
// child builds a fresh Session and never touches router state, so the
// standard escape hatch applies.
extern "C" const char* __tsan_default_options() {
  return "die_after_fork=0";
}
#endif

namespace cqa {
namespace served {

namespace {

constexpr std::uint64_t kShardSalt = 0x5ca1ab1e0fULL;
/// A client that stops reading (full socket buffer) must cost itself,
/// not the shard supervisor delivering its answer: writes block at most
/// this long, then the connection is dropped.
constexpr int kClientSendTimeoutSec = 5;
/// Clean-stop reap budget: workers get EOF and exit, which tears their
/// Session down and joins its scheduler executors -- each finishes the
/// request it is running first. A worker that cannot manage that in
/// this window is SIGKILLed so stop() never hangs the caller.
constexpr std::int64_t kStopReapGraceMs = 5000;

/// Closes every inherited descriptor except stdio and `keep`. Run in a
/// freshly forked worker so it cannot pin client connections, the
/// listener, or sibling worker pipes open past their owners.
void close_inherited_fds(int keep) {
  std::vector<int> fds;
  if (DIR* dir = opendir("/proc/self/fd")) {
    const int dir_fd = dirfd(dir);
    while (dirent* entry = readdir(dir)) {
      char* end = nullptr;
      const long fd = std::strtol(entry->d_name, &end, 10);
      if (end == entry->d_name || *end != '\0') continue;
      if (fd > 2 && fd != keep && fd != dir_fd) {
        fds.push_back(static_cast<int>(fd));
      }
    }
    closedir(dir);
  } else {
    for (int fd = 3; fd < 1024; ++fd) {
      if (fd != keep) fds.push_back(fd);
    }
  }
  for (int fd : fds) close(fd);
}

}  // namespace

Server::Server(ServedOptions options) : options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  if (!options_.cache_path.empty()) {
    cache_ = std::make_unique<DiskCache>(options_.cache_path,
                                         options_.cache_capacity);
  }
}

Server::~Server() { stop(); }

Status Server::start() {
  if (running_.exchange(true)) {
    return Status::internal("server already started");
  }
  stopping_.store(false);
  if (cache_) {
    Status s = cache_->open();
    if (!s.is_ok()) {
      running_.store(false);
      return s;
    }
  }
  Status bound = bind_listener();
  if (!bound.is_ok()) {
    running_.store(false);
    return bound;
  }
  workers_.clear();
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  if (options_.watchdog_budget_ms > 0) {
    // Shared liveness page, mapped before the first fork so the
    // workers' heartbeat stores land in the supervisor's view.
    watch_bytes_ = sizeof(WatchSlot) * options_.workers;
    void* mem = mmap(nullptr, watch_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      watch_ = nullptr;
      watch_bytes_ = 0;
      stop();
      return Status::internal("mmap for watchdog slots failed: " +
                              std::string(std::strerror(errno)));
    }
    watch_ = static_cast<WatchSlot*>(mem);
    for (std::size_t i = 0; i < options_.workers; ++i) {
      new (&watch_[i]) WatchSlot();
    }
  }
  // The initial fleet forks before any router thread exists, so even
  // sanitized builds fork from a single-threaded process here; only
  // respawns fork from a multithreaded one.
  for (std::size_t i = 0; i < options_.workers; ++i) {
    Status s = spawn_worker(i);
    if (!s.is_ok()) {
      stop();
      return s;
    }
  }
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_[i]->supervisor = std::thread(&Server::supervisor_loop, this, i);
  }
  acceptor_ = std::thread(&Server::accept_loop, this);
  return Status::ok();
}

void Server::stop() {
  if (!running_.load()) return;
  stopping_.store(true);

  // 1. Stop accepting. shutdown() wakes a blocked accept() on Linux.
  if (listener_ >= 0) shutdown(listener_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listener_ >= 0) {
    close(listener_);
    listener_ = -1;
  }

  // 2. Wake every client reader; the threads close their own fds.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      conn->open.store(false);
      // write_mu serializes with the reader's own close(): a thread
      // that already finished has set fd to -1.
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      if (conn->fd >= 0) shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers.swap(conn_threads_);
  }
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }

  // 3. Shut the fleet down: EOF on the socketpair makes each worker
  // exit; supervisors observe stopping_.
  for (auto& wp : workers_) {
    std::lock_guard<std::mutex> lock(wp->mu);
    if (wp->fd >= 0) shutdown(wp->fd, SHUT_RDWR);
  }
  for (auto& wp : workers_) {
    if (wp->supervisor.joinable()) wp->supervisor.join();
  }
  for (auto& wp : workers_) {
    std::lock_guard<std::mutex> lock(wp->mu);
    if (wp->fd >= 0) {
      close(wp->fd);
      wp->fd = -1;
    }
    if (wp->pid > 0) {
      reap_worker(wp->pid, kStopReapGraceMs);
      wp->pid = -1;
    }
    wp->alive = false;
  }

  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.clear();
  }
  if (watch_ != nullptr) {
    munmap(watch_, watch_bytes_);
    watch_ = nullptr;
    watch_bytes_ = 0;
  }
  if (!options_.unix_path.empty()) unlink(options_.unix_path.c_str());
  running_.store(false);
}

void Server::reap_worker(pid_t pid, std::int64_t grace_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(grace_ms);
  for (;;) {
    const pid_t r = waitpid(pid, nullptr, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) return;
    if (std::chrono::steady_clock::now() >= deadline) break;
    usleep(2000);
  }
  // Out of patience. SIGKILL works on stopped and wedged processes
  // alike, so the blocking reap below is bounded in practice.
  kill(pid, SIGKILL);
  for (;;) {
    const pid_t r = waitpid(pid, nullptr, 0);
    if (r == pid || (r < 0 && errno != EINTR)) return;
  }
}

Status Server::bind_listener() {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::invalid("unix socket path too long: " +
                             options_.unix_path);
    }
    unlink(options_.unix_path.c_str());
    listener_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener_ < 0) {
      return Status::internal("socket(AF_UNIX) failed");
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    if (bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      close(listener_);
      listener_ = -1;
      return Status::internal("bind failed: " + options_.unix_path);
    }
  } else {
    listener_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listener_ < 0) {
      return Status::internal("socket(AF_INET) failed");
    }
    int one = 1;
    setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.tcp_port);
    if (inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      close(listener_);
      listener_ = -1;
      return Status::invalid("bad tcp_host: " + options_.tcp_host);
    }
    if (bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      close(listener_);
      listener_ = -1;
      return Status::internal("bind failed: " + options_.tcp_host + ":" +
                              std::to_string(options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    getsockname(listener_, reinterpret_cast<sockaddr*>(&bound), &len);
    resolved_port_ = ntohs(bound.sin_port);
  }
  if (listen(listener_, 128) != 0) {
    close(listener_);
    listener_ = -1;
    return Status::internal("listen failed");
  }
  return Status::ok();
}

Status Server::spawn_worker(std::size_t shard) {
  int sp[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sp) != 0) {
    return Status::internal("socketpair failed: " +
                            std::string(std::strerror(errno)));
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(sp[0]);
    close(sp[1]);
    return Status::internal("fork failed: " +
                            std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    worker_main(sp[1], shard);  // never returns
  }
  close(sp[1]);
  Worker& w = *workers_[shard];
  std::lock_guard<std::mutex> lock(w.mu);
  w.fd = sp[0];
  w.pid = pid;
  w.alive = true;
  w.in_flight.store(0);
  // A stop() racing this respawn already walked the worker table; make
  // sure the fresh fd still gets its shutdown so the supervisor exits.
  if (stopping_.load()) shutdown(w.fd, SHUT_RDWR);
  return Status::ok();
}

void Server::worker_main(int fd, std::size_t shard) {
  close_inherited_fds(fd);
  {
    ConstraintDatabase db;
    // Declared before Session: ~Scheduler joins executors and publishes
    // still-queued tickets, whose then-callbacks lock write_mu -- it
    // must outlive the session's teardown.
    std::mutex write_mu;  // read loop + executor then-callbacks share fd
    Session session(&db, options_.session);
    // Armed watchdog: publish liveness into this shard's shared slot. A
    // dedicated thread keeps the heartbeat honest even while the main
    // thread blocks in read_frame; progress bumps ride the work itself.
    WatchSlot* slot = watch_ != nullptr ? &watch_[shard] : nullptr;
    std::atomic<bool> hb_stop{false};
    std::thread heartbeat;
    if (slot != nullptr) {
      heartbeat = std::thread(
          [slot, &hb_stop, interval = options_.watchdog_interval_ms] {
            while (!hb_stop.load(std::memory_order_relaxed)) {
              slot->beat.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(interval));
            }
          });
    }
    for (;;) {
      Frame frame;
      if (!read_frame(fd, &frame).is_ok()) break;
      if (slot != nullptr) {
        slot->progress.fetch_add(1, std::memory_order_relaxed);
      }
      switch (frame.type) {
        case MsgType::kPing: {
          std::lock_guard<std::mutex> lock(write_mu);
          (void)write_frame(fd, MsgType::kPong, frame.id, frame.payload);
          break;
        }
        case MsgType::kStats: {
          std::string text = "pid " + std::to_string(getpid()) + "\n";
          text += "serve_queue_depth_peak_window " +
                  std::to_string(session.metrics()
                                     .gauge("serve_queue_depth")
                                     ->take_peak()) +
                  "\n";
          text += session.metrics_dump();
          std::lock_guard<std::mutex> lock(write_mu);
          (void)write_frame(fd, MsgType::kStatsReply, frame.id, text);
          break;
        }
        case MsgType::kRequest: {
          auto decoded = decode_request(frame.payload);
          if (!decoded.is_ok()) {
            const std::string payload =
                encode_answer(Result<Answer>(decoded.status()), nullptr);
            std::lock_guard<std::mutex> lock(write_mu);
            (void)write_frame(fd, MsgType::kAnswer, frame.id, payload);
            break;
          }
          Request request = std::move(decoded).take();
          if (request.kind == RequestKind::kCells) {
            const std::string payload = encode_answer(
                Result<Answer>(Status::unsupported(
                    "kCells answers are not wire-serializable; "
                    "use a local Session")),
                nullptr);
            std::lock_guard<std::mutex> lock(write_mu);
            (void)write_frame(fd, MsgType::kAnswer, frame.id, payload);
            break;
          }
          serve::Ticket ticket = session.submit(std::move(request));
          ticket.then([fd, id = frame.id, &write_mu, &db,
                       slot](const Result<Answer>& result) {
            if (slot != nullptr) {
              slot->progress.fetch_add(1, std::memory_order_relaxed);
            }
            const std::string payload = encode_answer(result, &db.vars());
            std::lock_guard<std::mutex> lock(write_mu);
            if (!write_frame(fd, MsgType::kAnswer, id, payload).is_ok()) {
              // An answer over kMaxFrameBody must still resolve the
              // router's pending slot: downgrade to a typed error that
              // always fits. On a dead pipe this write fails too, which
              // is fine -- the router has already swept the shard.
              (void)write_frame(
                  fd, MsgType::kAnswer, id,
                  encode_answer(Result<Answer>(Status::resource_exhausted(
                                    "answer exceeds wire frame bound")),
                                nullptr));
            }
          });
          break;
        }
        default:
          break;
      }
    }
    hb_stop.store(true, std::memory_order_relaxed);
    if (heartbeat.joinable()) heartbeat.join();
    // Session teardown resolves every outstanding ticket; the callbacks
    // write into a dead pipe and fail silently, which is fine -- the
    // router has already given up on this worker.
  }
  _exit(0);
}

void Server::accept_loop() {
  for (;;) {
    const int fd = accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by stop()
    }
    if (stopping_.load()) {
      close(fd);
      continue;
    }
    reap_connections();
    timeval tv{};
    tv.tv_sec = kClientSendTimeoutSec;
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    auto conn = std::make_shared<ClientConn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back(&Server::client_loop, this, conn);
    conn->tid = conn_threads_.back().get_id();
  }
}

void Server::reap_connections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!(*it)->done.load()) {
        ++it;
        continue;
      }
      const std::thread::id tid = (*it)->tid;
      for (auto& t : conn_threads_) {
        if (t.joinable() && t.get_id() == tid) {
          finished.push_back(std::move(t));
          break;
        }
      }
      it = conns_.erase(it);
    }
    if (!finished.empty()) {
      conn_threads_.erase(
          std::remove_if(conn_threads_.begin(), conn_threads_.end(),
                         [](const std::thread& t) { return !t.joinable(); }),
          conn_threads_.end());
    }
  }
  // done was stored as the loop's last act; join outside the lock (it
  // waits only for the thread's final return).
  for (auto& t : finished) t.join();
}

void Server::client_loop(ClientConnPtr conn) {
  for (;;) {
    Frame frame;
    if (!read_frame(conn->fd, &frame).is_ok()) break;
    switch (frame.type) {
      case MsgType::kPing:
        send_to_client(conn, MsgType::kPong, frame.id, frame.payload);
        break;
      case MsgType::kRequest:
        handle_request(conn, frame);
        break;
      case MsgType::kStats:
        handle_stats(conn, frame);
        break;
      default:
        break;  // a client sending answers is talking to itself
    }
  }
  conn->open.store(false);
  {
    // Serialize with in-flight answer writes before the fd goes away.
    std::lock_guard<std::mutex> lock(conn->write_mu);
    close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true);  // reapable; must be the loop's last act
}

void Server::handle_request(const ClientConnPtr& conn, const Frame& frame) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  auto decoded = decode_request(frame.payload);
  if (!decoded.is_ok()) {
    send_to_client(conn, MsgType::kAnswer, frame.id,
                   encode_answer(Result<Answer>(decoded.status()), nullptr));
    return;
  }
  Request request = std::move(decoded).take();
  if (request.kind == RequestKind::kCells) {
    send_to_client(
        conn, MsgType::kAnswer, frame.id,
        encode_answer(Result<Answer>(Status::unsupported(
                          "kCells answers are not wire-serializable; "
                          "use a local Session")),
                      nullptr));
    return;
  }
  Status valid = validate_request(request);
  if (!valid.is_ok()) {
    // Reject at the router: garbage must not burn a shard's capacity.
    send_to_client(conn, MsgType::kAnswer, frame.id,
                   encode_answer(Result<Answer>(std::move(valid)), nullptr));
    return;
  }

  const std::string fingerprint = serve::request_fingerprint(request);
  const std::size_t shard = shard_of(request);

  if (cache_) {
    if (auto hit = cache_->lookup(fingerprint)) {
      cache_hit_total_.fetch_add(1, std::memory_order_relaxed);
      answers_total_.fetch_add(1, std::memory_order_relaxed);
      send_to_client(conn, MsgType::kAnswer, frame.id, *hit);
      return;
    }
  }

  Worker& w = *workers_[shard];
  std::unique_lock<std::mutex> lock(w.mu);
  if (!w.alive || w.in_flight.load() >= options_.shard_capacity) {
    lock.unlock();
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    send_to_client(conn, MsgType::kAnswer, frame.id,
                   degraded_payload(request.kind, DegradeReason::kShed));
    return;
  }
  const std::uint64_t gid = next_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> plock(pending_mu_);
    Pending p;
    p.conn = conn;
    p.client_id = frame.id;
    p.shard = shard;
    p.kind = request.kind;
    p.fingerprint = cache_ ? fingerprint : std::string();
    p.counted = true;
    p.generation = w.generation;  // w.mu still held
    pending_.emplace(gid, std::move(p));
  }
  w.in_flight.fetch_add(1);
  Status sent = write_frame(w.fd, MsgType::kRequest, gid, frame.payload);
  lock.unlock();
  if (!sent.is_ok()) {
    // The worker died between admission and write. The supervisor sweep
    // may have claimed the entry already; whoever erases it resolves it.
    Pending entry;
    bool claimed = false;
    {
      std::lock_guard<std::mutex> plock(pending_mu_);
      auto it = pending_.find(gid);
      if (it != pending_.end()) {
        entry = std::move(it->second);
        pending_.erase(it);
        claimed = true;
      }
    }
    if (claimed) {
      release_slot(w, entry);
      crash_degraded_total_.fetch_add(1, std::memory_order_relaxed);
      const std::string payload =
          degraded_payload(entry.kind, DegradeReason::kCrashed);
      resolve_pending(std::move(entry), MsgType::kAnswer, payload);
    }
  }
}

void Server::release_slot(Worker& w, const Pending& entry) {
  if (!entry.counted) return;
  std::lock_guard<std::mutex> lock(w.mu);
  // A crash sweep that already zeroed in_flight bumped the generation;
  // this entry's slot is gone and must not be charged to the respawn.
  if (w.generation == entry.generation) w.in_flight.fetch_sub(1);
}

void Server::handle_stats(const ClientConnPtr& conn, const Frame& frame) {
  std::string text;
  const ServerStats s = stats();
  text += "workers " + std::to_string(workers_.size()) + "\n";
  text += "served_requests_total " + std::to_string(s.requests) + "\n";
  text += "served_answers_total " + std::to_string(s.answers) + "\n";
  text += "served_shed_total " + std::to_string(s.shed) + "\n";
  text += "served_crash_degraded_total " + std::to_string(s.crash_degraded) +
          "\n";
  text += "served_respawn_total " + std::to_string(s.respawns) + "\n";
  text += "served_cache_hit_total " + std::to_string(s.cache_hits) + "\n";
  text += "served_hung_kill_total " + std::to_string(s.hung_kills) + "\n";
  text += "served_hung_degraded_total " + std::to_string(s.hung_degraded) +
          "\n";
  if (cache_) {
    const DiskCacheStats cs = cache_->stats();
    text += "disk_cache_entries " + std::to_string(cs.entries) + "\n";
    text += "disk_cache_stores " + std::to_string(cs.stores) + "\n";
    text += "disk_cache_loaded " + std::to_string(cs.loaded) + "\n";
    text += "disk_cache_dropped_corrupt " +
            std::to_string(cs.dropped_corrupt) + "\n";
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    const std::string tag = "shard " + std::to_string(i) + " ";
    const std::uint64_t gid =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    auto waiter = std::make_shared<Waiter>();
    {
      std::unique_lock<std::mutex> lock(w.mu);
      if (!w.alive) {
        text += tag + "down\n";
        continue;
      }
      text += tag + "pid " + std::to_string(w.pid) + "\n";
      text += tag + "in_flight " + std::to_string(w.in_flight.load()) + "\n";
      {
        std::lock_guard<std::mutex> plock(pending_mu_);
        Pending p;
        p.waiter = waiter;
        p.shard = i;
        pending_.emplace(gid, std::move(p));
      }
      Status sent = write_frame(w.fd, MsgType::kStats, gid, "");
      if (!sent.is_ok()) {
        std::lock_guard<std::mutex> plock(pending_mu_);
        pending_.erase(gid);
        text += tag + "unreachable\n";
        continue;
      }
    }
    std::unique_lock<std::mutex> wlock(waiter->mu);
    const bool replied = waiter->cv.wait_for(
        wlock, std::chrono::seconds(2), [&] { return waiter->done; });
    if (!replied) {
      std::lock_guard<std::mutex> plock(pending_mu_);
      pending_.erase(gid);  // late replies find nothing; that is fine
      text += tag + "stats timeout\n";
      continue;
    }
    text += waiter->frame.payload;
  }
  send_to_client(conn, MsgType::kStatsReply, frame.id, text);
}

void Server::supervisor_loop(std::size_t shard) {
  Worker& w = *workers_[shard];
  const bool armed = watch_ != nullptr && options_.watchdog_budget_ms > 0;
  const auto budget = std::chrono::milliseconds(options_.watchdog_budget_ms);
  for (;;) {
    int fd = -1;
    pid_t pid = -1;
    {
      std::lock_guard<std::mutex> lock(w.mu);
      fd = w.fd;
      pid = w.pid;
    }
    // Wedge detection baselines, reset per worker incarnation. The
    // heartbeat and progress counters are monotonic across respawns, so
    // only deltas matter.
    std::uint64_t last_beat = 0, last_progress = 0;
    auto beat_at = std::chrono::steady_clock::now();
    auto progress_at = beat_at;
    if (armed) {
      last_beat = watch_[shard].beat.load(std::memory_order_relaxed);
      last_progress = watch_[shard].progress.load(std::memory_order_relaxed);
    }
    bool hung = false;
    for (;;) {
      if (armed) {
        // Poll instead of blocking in read_frame: the supervisor must
        // keep observing the liveness slot while the pipe is silent.
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int r =
            poll(&pfd, 1, static_cast<int>(options_.watchdog_interval_ms));
        if (r < 0) {
          if (errno == EINTR) continue;
          break;
        }
        const auto now = std::chrono::steady_clock::now();
        const std::uint64_t beat =
            watch_[shard].beat.load(std::memory_order_relaxed);
        const std::uint64_t progress =
            watch_[shard].progress.load(std::memory_order_relaxed);
        if (beat != last_beat) {
          last_beat = beat;
          beat_at = now;
        }
        if (progress != last_progress ||
            w.in_flight.load(std::memory_order_relaxed) == 0) {
          // Idle shards are never wedged: progress freshness is
          // measured from the moment the shard became busy.
          last_progress = progress;
          progress_at = now;
        }
        if (now - beat_at >= budget || now - progress_at >= budget) {
          hung = true;
          break;
        }
        if (r == 0) continue;  // silence, but alive: keep watching
      }
      Frame frame;
      // Armed: poll said readable, so bound the read by the watchdog
      // budget -- a worker stopped mid-frame must wedge the supervisor
      // no longer than any other hang.
      Status got = read_frame(fd, &frame,
                              armed ? options_.watchdog_budget_ms
                                    : std::int64_t{-1});
      if (!got.is_ok()) {
        hung = got.code() == StatusCode::kDeadlineExceeded;
        break;
      }
      Pending entry;
      {
        std::lock_guard<std::mutex> plock(pending_mu_);
        auto it = pending_.find(frame.id);
        if (it == pending_.end()) continue;  // stats timeout raced us
        entry = std::move(it->second);
        pending_.erase(it);
      }
      release_slot(w, entry);
      if (frame.type == MsgType::kAnswer) {
        answers_total_.fetch_add(1, std::memory_order_relaxed);
        if (cache_ && !entry.fingerprint.empty() &&
            answer_is_cacheable(frame.payload)) {
          cache_->store(entry.fingerprint, frame.payload);
        }
      }
      resolve_pending(std::move(entry), frame.type, frame.payload);
    }
    if (stopping_.load()) return;

    // The worker died mid-stream (kill -9, OOM, engine abort) or the
    // watchdog declared it wedged. The blast radius is this shard and
    // nothing else: kill if needed, reap the corpse, resolve its
    // in-flight honestly, refleet.
    {
      std::lock_guard<std::mutex> lock(w.mu);
      w.alive = false;
      if (w.fd >= 0) {
        close(w.fd);
        w.fd = -1;
      }
      // Reclaim the whole shard's capacity and invalidate every counted
      // Pending of the old worker in one step: slow paths that still
      // hold such an entry see the generation mismatch in release_slot
      // and leave the fresh worker's counter alone.
      ++w.generation;
      w.in_flight.store(0);
    }
    if (pid > 0) {
      if (hung) {
        // Escalate: SIGTERM first so a merely-slow worker can exit
        // cleanly; reap_worker SIGKILLs after the grace (the only rung
        // that works on a SIGSTOPped process).
        hung_kill_total_.fetch_add(1, std::memory_order_relaxed);
        kill(pid, SIGTERM);
      }
      reap_worker(pid, options_.term_grace_ms);
    }
    std::vector<Pending> orphans;
    {
      std::lock_guard<std::mutex> plock(pending_mu_);
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->second.shard == shard) {
          orphans.push_back(std::move(it->second));
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& entry : orphans) {
      if (entry.waiter) {
        resolve_pending(std::move(entry), MsgType::kStatsReply,
                        "worker down\n");
        continue;
      }
      if (hung) {
        hung_degraded_total_.fetch_add(1, std::memory_order_relaxed);
      } else {
        crash_degraded_total_.fetch_add(1, std::memory_order_relaxed);
      }
      const std::string payload = degraded_payload(
          entry.kind, hung ? DegradeReason::kHung : DegradeReason::kCrashed);
      resolve_pending(std::move(entry), MsgType::kAnswer, payload);
    }
    if (stopping_.load()) return;
    if (!spawn_worker(shard).is_ok()) {
      // Could not refleet (fork pressure). The shard stays down and new
      // arrivals shed at admission; nothing hangs.
      return;
    }
    respawn_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::send_to_client(const ClientConnPtr& conn, MsgType type,
                            std::uint64_t id, const std::string& payload) {
  if (!conn || !conn->open.load()) return;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load() || conn->fd < 0) return;
  if (!write_frame(conn->fd, type, id, payload).is_ok()) {
    // Write failed or timed out (SO_SNDTIMEO): drop the connection.
    // shutdown() wakes the reader thread so it closes the fd and the
    // acceptor's sweep reaps it; later sends no-op on open == false.
    conn->open.store(false);
    shutdown(conn->fd, SHUT_RDWR);
  }
}

void Server::resolve_pending(Pending&& entry, MsgType type,
                             const std::string& payload) {
  if (entry.waiter) {
    std::lock_guard<std::mutex> lock(entry.waiter->mu);
    if (!entry.waiter->done) {
      entry.waiter->frame.type = type;
      entry.waiter->frame.payload = payload;
      entry.waiter->done = true;
      entry.waiter->cv.notify_all();
    }
    return;
  }
  send_to_client(entry.conn, type, entry.client_id, payload);
}

std::string Server::degraded_payload(RequestKind kind, DegradeReason why) {
  if (kind == RequestKind::kVolume) {
    Answer a = degraded_half_answer();
    a.guard.shed = why == DegradeReason::kShed;
    a.guard.worker_crashed = why == DegradeReason::kCrashed;
    a.guard.worker_hung = why == DegradeReason::kHung;
    return encode_answer(Result<Answer>(std::move(a)), nullptr);
  }
  const char* message = "shard at capacity; request shed at admission";
  if (why == DegradeReason::kCrashed) {
    message = "shard worker died mid-request; safe to retry";
  } else if (why == DegradeReason::kHung) {
    message = "shard worker hung mid-request and was killed; safe to retry";
  }
  return encode_answer(
      Result<Answer>(Status::resource_exhausted(message)), nullptr);
}

pid_t Server::worker_pid(std::size_t shard) const {
  if (shard >= workers_.size()) return -1;
  std::lock_guard<std::mutex> lock(workers_[shard]->mu);
  return workers_[shard]->pid;
}

std::size_t Server::shard_of(const Request& request) const {
  // A hash of what names the computation (kind, query, output
  // variables, bindings), not of its budget or seed. FNV-1a's low k
  // bits depend only on the low k bits of each byte, so splitmix64's
  // finalizer (stream_seed) mixes the hash before the modulus.
  std::string key;
  bincode::put_u8(&key, static_cast<std::uint8_t>(request.kind));
  bincode::put_str(&key, request.query);
  for (const auto& v : request.output_vars) bincode::put_str(&key, v);
  for (const auto& [name, value] : request.bindings) {
    bincode::put_str(&key, name);
    bincode::put_str(&key, value.to_string());
  }
  const std::size_t n = workers_.empty() ? options_.workers : workers_.size();
  return stream_seed(bincode::fnv1a(key, kShardSalt), 0) % n;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_total_.load(std::memory_order_relaxed);
  s.answers = answers_total_.load(std::memory_order_relaxed);
  s.shed = shed_total_.load(std::memory_order_relaxed);
  s.crash_degraded = crash_degraded_total_.load(std::memory_order_relaxed);
  s.respawns = respawn_total_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hit_total_.load(std::memory_order_relaxed);
  s.hung_kills = hung_kill_total_.load(std::memory_order_relaxed);
  s.hung_degraded = hung_degraded_total_.load(std::memory_order_relaxed);
  return s;
}

DiskCacheStats Server::cache_stats() const {
  return cache_ ? cache_->stats() : DiskCacheStats{};
}

std::size_t Server::live_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

}  // namespace served
}  // namespace cqa

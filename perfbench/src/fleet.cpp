// The fleet of the traced served section: a 2-worker cqa::served fleet
// with a disk result cache, and an open-loop generator against it.
//
// One generator thread sends pre-encoded request frames at a fixed
// arrival rate, round-robin over a few unix-socket connections, and
// never waits for answers; one reader thread per connection matches
// answers by frame id (the router answers out of order).

#include "fleet.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "cqa/served/wire.h"

namespace perfbench {

namespace served = cqa::served;

namespace {

// A reader (or a blocked send) gives up after this long; the run then
// fails with a message instead of hanging.
constexpr std::int64_t kReadTimeoutMs = 30000;
// In-flight cap when sending as fast as possible (set-up warm-up), far
// below the router's per-shard admission capacity.
constexpr std::size_t kWarmupWindow = 32;
constexpr std::size_t kWarmupRequests = 300;

int connect_unix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // A fleet that stops reading must fail the send, not hang the run.
  timeval tv{};
  tv.tv_sec = kReadTimeoutMs / 1000;
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

std::size_t generator_connections() {
  // One sender plus one reader per connection stays within nproc.
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n > 1 ? n - 1 : 1, 1, 3);
}

Pipe::Pipe(const std::string& socket_path, std::size_t connections) {
  for (std::size_t c = 0; c < connections; ++c) {
    const int fd = connect_unix(socket_path);
    if (fd < 0) {
      throw std::runtime_error("cannot connect to fleet socket " +
                               socket_path + ": " + std::strerror(errno));
    }
    fds_.push_back(fd);
  }
}

Pipe::~Pipe() {
  for (int fd : fds_) close(fd);
}

Traffic Pipe::send_all(const std::vector<std::string>& payloads,
                       double rate) {
  const std::size_t n = payloads.size();
  const std::size_t conns = fds_.size();
  Traffic t;
  t.due.resize(n);
  t.sent.resize(n);
  t.answers.resize(n);

  std::mutex mu;  // guards completed and error
  std::condition_variable cv;
  std::size_t completed = 0;
  std::string error;

  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns; ++c) {
    readers.emplace_back([&, c] {
      const std::size_t expected = n / conns + (c < n % conns ? 1 : 0);
      for (std::size_t k = 0; k < expected; ++k) {
        served::Frame f;
        cqa::Status st = served::read_frame(fds_[c], &f, kReadTimeoutMs);
        std::lock_guard<std::mutex> lock(mu);
        if (!st.is_ok() || f.type != served::MsgType::kAnswer || f.id == 0 ||
            f.id > n) {
          if (error.empty()) {
            error = "reading answers failed: " +
                    (st.is_ok() ? std::string("unexpected frame")
                                : st.to_string());
          }
          cv.notify_all();
          return;
        }
        t.answers[f.id - 1] = std::move(f.payload);
        ++completed;
        cv.notify_all();
      }
    });
  }

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (rate > 0) {
      t.due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(i / rate));
      std::this_thread::sleep_until(t.due[i]);
    } else {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        return !error.empty() || i - completed < kWarmupWindow;
      });
      t.due[i] = Clock::now();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error.empty()) break;
    }
    t.sent[i] = Clock::now();
    cqa::Status st = served::write_frame(fds_[i % conns],
                                         served::MsgType::kRequest, i + 1,
                                         payloads[i]);
    if (!st.is_ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (error.empty()) error = "sending requests failed: " + st.to_string();
      break;
    }
  }
  if (!error.empty()) {
    // Unblock readers still waiting for answers that will never come.
    for (int fd : fds_) shutdown(fd, SHUT_RDWR);
  }
  for (auto& r : readers) r.join();
  if (!error.empty()) throw std::runtime_error(error);
  return t;
}

served::ServedOptions fleet_options(const std::string& tag) {
  served::ServedOptions o;
  o.workers = 2;
  o.unix_path = "fleet-" + tag + ".sock";
  o.cache_path = "cache-" + tag + ".bin";
  o.cache_capacity = 1 << 16;
  // One executor per worker: cqa::Database::holds memoizes compiled
  // sentences in unsynchronized mutable members, so two kAsk requests
  // running at once in one worker race (heap use-after-free, seen as
  // worker crashes under load). With one executor a worker runs one
  // request at a time, on its executor and a 1-thread pool.
  o.session.serve_executors = 1;
  o.session.threads = 1;
  return o;
}

Fleet::Fleet(const std::string& tag, const std::vector<Item>& hot_set) {
  const served::ServedOptions options = fleet_options(tag);
  server = std::make_unique<served::Server>(options);
  cqa::Status st = server->start();
  if (!st.is_ok()) {
    throw std::runtime_error("fleet start failed: " + st.to_string());
  }
  pipe = std::make_unique<Pipe>(options.unix_path, generator_connections());
  std::vector<std::string> warm;
  for (const Item& it : gen_warmup("fleet", kWarmupRequests)) {
    warm.push_back(served::encode_request(it.request));
  }
  pipe->send_all(warm, 0);
  // The hot set goes last so the timed phase's repeats are cache reads.
  std::vector<std::string> hot;
  for (const Item& it : hot_set) {
    hot.push_back(served::encode_request(it.request));
  }
  Traffic t = pipe->send_all(hot, 0);
  for (std::size_t i = 0; i < t.answers.size(); ++i) {
    if (!served::answer_is_cacheable(t.answers[i])) {
      throw std::runtime_error("hot-set request " + std::to_string(i) +
                               " was not answered at full fidelity: " +
                               hot_set[i].request.query);
    }
  }
}

Fleet::~Fleet() {
  pipe.reset();
  if (server) server->stop();
}

namespace {

// Wire encoding of an answer with elapsed_ms cleared and, unless
// `with_usage`, the guard's resource accounting cleared too: two
// answers to one request must match byte for byte on everything else.
std::string canonical_answer(cqa::Result<cqa::Answer> r, bool with_usage) {
  if (r.is_ok()) {
    r.value().elapsed_ms = 0;
    if (!with_usage) r.value().guard.usage = {};
  }
  return served::encode_answer(r, nullptr);
}

}  // namespace

// Each distinct request runs once: a repeat would be an EvalCache hit
// in the oracle's Session, whose guard accounting differs from the
// computation the fleet cached.
std::vector<cqa::Result<cqa::Answer>> oracle_answers(
    const std::vector<Item>& items) {
  std::map<std::string, std::size_t> first;
  std::vector<std::size_t> distinct, source(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto [it, fresh] =
        first.emplace(served::encode_request(items[i].request), i);
    if (fresh) distinct.push_back(i);
    source[i] = it->second;
  }
  // Serial, for the same reason the fleet runs one executor per worker.
  cqa::ConstraintDatabase db;
  cqa::Session session(&db, fleet_options("oracle").session);
  std::vector<cqa::Result<cqa::Answer>> out(
      items.size(), cqa::Status::internal("not computed"));
  for (std::size_t i : distinct) out[i] = session.run(items[i].request);
  for (std::size_t i = 0; i < items.size(); ++i) out[i] = out[source[i]];
  return out;
}

bool check_served_answer(std::size_t i, const Item& it,
                         const std::string& payload,
                         const cqa::Result<cqa::Answer>& oracle,
                         CheckTally* tally, std::size_t* usage_mismatches) {
  cqa::ConstraintDatabase db;
  cqa::Result<cqa::Answer> r = cqa::Status::internal("undecoded");
  cqa::Status st = served::decode_answer(payload, &db, &r);
  ++tally->checked;
  if (!st.is_ok()) {
    tally->fail(i, it, "undecodable answer: " + st.to_string());
    return false;
  }
  if (!r.is_ok()) {
    tally->error(i, it, r.status().to_string());
    return false;
  }
  const std::uint64_t before = tally->wrong;
  bool within_epsilon = true;
  const cqa::Answer& a = r.value();
  if (a.guard.quota_tripped) tally->fail(i, it, "quota tripped");
  if (it.request.kind == cqa::RequestKind::kAsk) {
    if (!a.truth || (*a.truth ? 1.0 : 0.0) != *it.truth) {
      tally->fail(i, it, "wrong truth value");
    }
  } else if (it.expect_exact && !a.volume.exact) {
    tally->fail(i, it, "not routed to an exact strategy");
  }
  const bool same =
      canonical_answer(r, false) == canonical_answer(oracle, false);
  if (same && canonical_answer(r, true) != canonical_answer(oracle, true)) {
    ++*usage_mismatches;
  }
  if (!a.degraded()) {
    // Full fidelity: the fleet must answer what an in-process
    // Session::run answers.
    if (!same) tally->fail(i, it, "differs from in-process Session::run");
    if (a.volume.estimate) within_epsilon = check_mc_estimate(i, it, a, tally);
  } else if (!same) {
    // Degraded by timing or a worker crash: the bars must still contain
    // the truth. Hoeffding bars at delta miss with probability delta.
    ++tally->mc_checked;
    if (!it.truth || !a.volume.lower || !a.volume.upper) {
      tally->fail(i, it, "degraded answer without bars");
    } else if (*a.volume.lower > *it.truth || *a.volume.upper < *it.truth) {
      ++tally->mc_misses;
      within_epsilon = false;
    }
  }
  return tally->wrong == before && within_epsilon;
}

}  // namespace perfbench

#include "cqa/serve/scheduler.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "cqa/guard/fault.h"
#include "cqa/runtime/eval_cache.h"
#include "cqa/runtime/session.h"
#include "cqa/util/bincode.h"

namespace cqa {
namespace serve {

namespace {

// A queued request this close to its deadline dispatches next,
// whatever its lane.
constexpr auto kPromoteWithin = std::chrono::milliseconds(5);
// Forced-MC requests run as one group at most.
constexpr std::size_t kMaxMcBatch = 8;

std::size_t lane_of(const Request& request) {
  int p = static_cast<int>(request.priority);
  if (p < 0 || p >= kNumPriorities) p = static_cast<int>(Priority::kNormal);
  return static_cast<std::size_t>(p);
}

}  // namespace

Scheduler::Scheduler(Session* session) : session_(session) {
  MetricsRegistry& m = session_->metrics();
  queue_depth_ = m.gauge("serve_queue_depth");
  submitted_ = m.counter("serve_submitted_total");
  coalesced_ = m.counter("serve_coalesced_total");
  batched_ = m.counter("serve_mc_batched_total");
  shed_ = m.counter("serve_shed_total");
  wait_ns_ = m.histogram("serve_wait_ns");
  const std::size_t n =
      std::max<std::size_t>(1, session_->options_.serve_executors);
  executors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : executors_) t.join();
  // Executors are gone: whatever is still queued resolves now, so no
  // Ticket::wait() can outlive the scheduler blocked.
  for (auto& lane : lanes_) {
    for (Job& job : lane) {
      publish(job.state, Status::cancelled("scheduler shut down"));
      queue_depth_->sub();
    }
    lane.clear();
  }
  queued_ = 0;
}

std::string request_fingerprint(const Request& request) {
  using namespace bincode;
  std::string fp;
  fp.reserve(128 + request.query.size());
  // Format version: bump when an answer-affecting field is added so a
  // disk cache written by an older build can never alias a new shape.
  // Format 2: VolumeStrategy lost its sweep-only member, renumbering the
  // strategy byte below. Format 3: it lost the three paper baselines
  // (kTrivialHalf moved from 5 to 3).
  put_u8(&fp, 3);
  put_u8(&fp, static_cast<std::uint8_t>(request.kind));
  put_str(&fp, request.query);
  put_u64(&fp, request.output_vars.size());
  for (const auto& v : request.output_vars) put_str(&fp, v);
  put_f64(&fp, request.budget.epsilon);
  put_f64(&fp, request.budget.delta);
  put_i64(&fp, request.budget.deadline_ms);
  // Quotas degrade answers when they trip, so they are answer-affecting.
  put_u64(&fp, request.budget.quota.max_qe_atoms);
  put_u64(&fp, request.budget.quota.max_fm_rows);
  put_u64(&fp, request.budget.quota.max_sweep_sections);
  put_u64(&fp, request.budget.quota.max_bigint_bits);
  put_u64(&fp, request.budget.quota.max_resident_bytes);
  put_u64(&fp, request.seed);
  put_u8(&fp, request.strategy
                  ? static_cast<std::uint8_t>(*request.strategy)
                  : std::uint8_t{0xff});
  put_u8(&fp, request.vc_dim ? 1 : 0);
  put_f64(&fp, request.vc_dim ? *request.vc_dim : 0.0);
  put_u64(&fp, request.max_mc_samples);
  put_u8(&fp, static_cast<std::uint8_t>(request.aggregate_fn));
  put_u64(&fp, request.bindings.size());
  for (const auto& [name, value] : request.bindings) {
    put_str(&fp, name);
    put_str(&fp, value.to_string());
  }
  return fp;
}

// The coalescing fingerprint: the stable encoding above -- identical
// across builds and processes, so the served shard-router hashing it
// coalesces duplicates *across* workers too. Equal deadline_ms is
// required for soundness -- the leader armed its (absolute) deadline no
// later than any follower's, so the leader's answer satisfies every
// follower's budget. Requests with caller-owned cancel tokens or
// bindings are never coalesced (distinct cancellation identity).
std::string Scheduler::fingerprint_of(const Request& request) {
  if (request.cancel != nullptr || !request.bindings.empty()) return "";
  return request_fingerprint(request);
}

bool Scheduler::mc_batchable(const Request& a, const Request& b) {
  return a.kind == RequestKind::kVolume && b.kind == RequestKind::kVolume &&
         a.strategy && b.strategy &&
         *a.strategy == VolumeStrategy::kMonteCarlo &&
         *b.strategy == VolumeStrategy::kMonteCarlo &&
         a.query == b.query && a.output_vars == b.output_vars &&
         a.bindings.empty() && b.bindings.empty();
}

Ticket Scheduler::submit(Request request) {
  auto state = std::make_shared<TicketState>();
  Ticket ticket(state);

  if (Status v = validate_request(request); !v.is_ok()) {
    publish(state, std::move(v));
    return ticket;
  }
  submitted_->inc();

  // Arm the deadline now: queue wait is part of the caller's latency
  // budget. A caller-owned token that is already armed stays as-is.
  state->external_cancel = request.cancel;
  if (request.budget.has_deadline()) {
    CancelToken* t =
        request.cancel != nullptr ? request.cancel : &state->cancel;
    if (!t->has_deadline()) {
      t->set_deadline_after_ms(request.budget.deadline_ms);
    }
  }

  Job job;
  job.state = state;
  job.enqueued_at = Clock::now();
  job.has_deadline = request.budget.has_deadline();
  if (job.has_deadline) {
    job.deadline_at = job.enqueued_at + std::chrono::milliseconds(
                                            request.budget.deadline_ms);
  }
  job.fingerprint = fingerprint_of(request);
  const std::size_t lane = lane_of(request);
  const RequestKind kind = request.kind;
  job.request = std::move(request);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      publish(state, Status::cancelled("scheduler shut down"));
      return ticket;
    }
    if (queued_ >= session_->options_.serve_queue_capacity) {
      // Load shed. Volume requests still own a sound answer -- the last
      // rung of the degradation ladder, honest [0, 1] bars -- computed
      // right here without touching any engine. Kinds the ladder cannot
      // serve get the typed error.
      shed_->inc();
      if (kind == RequestKind::kVolume) {
        Answer a = degraded_half_answer();
        a.guard.shed = true;
        publish(state, std::move(a));
      } else {
        publish(state, Status::resource_exhausted(
                           "serve queue over capacity"));
      }
      return ticket;
    }
    lanes_[lane].push_back(std::move(job));
    ++queued_;
    queue_depth_->add();
  }
  work_cv_.notify_one();
  return ticket;
}

void Scheduler::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

std::size_t Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

bool Scheduler::lanes_empty() const { return queued_ == 0; }

// Highest-priority lane first, FIFO within a lane -- unless some queued
// request is within kPromoteWithin of its deadline, in which case the
// nearest-deadline one dispatches next regardless of lane.
Scheduler::Job Scheduler::pop_head() {
  const auto now = Clock::now();
  std::deque<Job>* urgent_lane = nullptr;
  std::size_t urgent_idx = 0;
  Clock::time_point urgent_deadline = Clock::time_point::max();
  for (auto& lane : lanes_) {
    for (std::size_t i = 0; i < lane.size(); ++i) {
      const Job& j = lane[i];
      if (!j.has_deadline) continue;
      if (j.deadline_at - now <= kPromoteWithin &&
          j.deadline_at < urgent_deadline) {
        urgent_lane = &lane;
        urgent_idx = i;
        urgent_deadline = j.deadline_at;
      }
    }
  }
  std::deque<Job>* lane = urgent_lane;
  std::size_t idx = urgent_idx;
  if (lane == nullptr) {
    for (auto& l : lanes_) {
      if (!l.empty()) {
        lane = &l;
        idx = 0;
        break;
      }
    }
  }
  Job head = std::move((*lane)[idx]);
  lane->erase(lane->begin() + static_cast<std::ptrdiff_t>(idx));
  --queued_;
  queue_depth_->sub();
  return head;
}

// Pulls everything that can ride with `head` out of the lanes: exact
// duplicates of any group member become followers of that member, and
// (for a forced-Monte-Carlo head) compatible MC requests become
// additional group members up to kMaxMcBatch.
std::vector<Scheduler::Exec> Scheduler::collect_group(Job head) {
  std::vector<Exec> group;
  std::unordered_map<std::string, std::size_t> by_fp;
  const bool batching =
      head.request.kind == RequestKind::kVolume && head.request.strategy &&
      *head.request.strategy == VolumeStrategy::kMonteCarlo;
  if (!head.fingerprint.empty()) by_fp.emplace(head.fingerprint, 0);
  group.push_back(Exec{std::move(head), {}});

  for (auto& lane : lanes_) {
    for (auto it = lane.begin(); it != lane.end();) {
      bool taken = false;
      if (!it->fingerprint.empty()) {
        auto dup = by_fp.find(it->fingerprint);
        if (dup != by_fp.end()) {
          coalesced_->inc();
          group[dup->second].duplicates.push_back(std::move(*it));
          taken = true;
        }
      }
      if (!taken && batching && group.size() < kMaxMcBatch &&
          mc_batchable(group[0].job.request, it->request)) {
        if (!it->fingerprint.empty()) {
          by_fp.emplace(it->fingerprint, group.size());
        }
        batched_->inc();
        group.push_back(Exec{std::move(*it), {}});
        taken = true;
      }
      if (taken) {
        it = lane.erase(it);
        --queued_;
        queue_depth_->sub();
      } else {
        ++it;
      }
    }
  }
  return group;
}

void Scheduler::executor_loop() {
  for (;;) {
    std::vector<Exec> group;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (!paused_ && !lanes_empty());
      });
      if (stop_) return;
      group = collect_group(pop_head());
    }
    execute(std::move(group));
  }
}

Result<Answer> Scheduler::run_job(Job& job) {
  if (job.state->cancel_requested.load(std::memory_order_acquire)) {
    return Status::cancelled("request cancelled before execution");
  }
  Request request = std::move(job.request);
  if (request.cancel == nullptr) request.cancel = &job.state->cancel;
  // Bind the token for FlightTable followers: if this request blocks
  // behind another request's in-flight computation, its own cancel /
  // deadline can still wake it.
  ServeTokenScope token_scope(request.cancel);
  return session_->run(request);
}

void Scheduler::execute(std::vector<Exec> group) {
  guard::fault_park();
  const auto now = Clock::now();
  auto observe_wait = [&](const Job& j) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now - j.enqueued_at)
                        .count();
    wait_ns_->observe_ns(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
  };
  for (const Exec& e : group) {
    observe_wait(e.job);
    for (const Job& d : e.duplicates) observe_wait(d);
  }

  // Every member runs through Session::run -- a lone request is a group
  // of one. The members of a forced-MC group run side by side on the
  // pool: one served-size sample spans only a couple of pool tasks
  // (ParallelSampler::kMinPointsPerTask), so running the members at
  // once is what spreads a burst across the workers. Answers publish
  // from this executor once the group is done, so Ticket::then
  // callbacks (which may block on I/O) never hold a pool thread.
  std::vector<std::optional<Result<Answer>>> results(group.size());
  session_->pool().parallel_for(
      0, group.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          // Single-flight participation for this member: a leader that
          // errors out has its flights abandoned on scope exit.
          ServeFlightScope flight_scope(&session_->cache());
          results[i] = run_job(group[i].job);
        }
      });
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (const Job& d : group[i].duplicates) publish(d.state, *results[i]);
    publish(group[i].job.state, std::move(*results[i]));
  }
}

void Scheduler::publish(const std::shared_ptr<TicketState>& state,
                        Result<Answer> result) {
  std::function<void(const Result<Answer>&)> on_ready;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->ready) return;
    state->result = std::move(result);
    state->ready = true;
    on_ready = std::move(state->on_ready);
    state->on_ready = nullptr;
  }
  state->cv.notify_all();
  // Outside the lock: `result` is immutable once ready, and a callback
  // that re-enters the ticket (wait/try_get) must not deadlock.
  if (on_ready) on_ready(state->result);
}

}  // namespace serve
}  // namespace cqa

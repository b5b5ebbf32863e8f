// serve::Scheduler -- asynchronous batched execution of Session
// requests, with admission control.
//
// submit() enqueues a request into one of three per-priority FIFO lanes
// and returns a Ticket immediately; a small set of executor threads
// drains the lanes. The scheduler is where requests first interact:
//
//   - Coalescing: when an executor dequeues a request, every queued
//     request with an identical fingerprint (same kind, query, vars,
//     budget, strategy, seed) rides along and receives a copy of the
//     leader's answer -- N duplicates cost one computation. Below the
//     request level, executors run inside a ServeFlightScope, so
//     *overlapping* requests that share a rewrite or exact-volume cache
//     key single-flight through the EvalCache FlightTable as well.
//     Both paths count into serve_coalesced_total.
//   - MC grouping: queued volume requests that force kMonteCarlo on the
//     same (query, output_vars) are dequeued together, up to 8 at a
//     time, and run concurrently on the session's pool. Each member goes
//     through Session::run with its own seed, token and meter: grouping
//     changes when members run, not what they compute. Members share
//     the rewrite as requests on different executors do: one computes
//     it, the others join its flight (counted as coalesced) or read it
//     from the cache.
//   - Admission control: the queue is bounded. Over capacity, volume
//     requests are shed to the last degradation rung (trivial 1/2 with
//     honest [0, 1] bars, guard.shed = true) instead of being rejected;
//     kinds the ladder cannot serve get a typed kResourceExhausted.
//   - Deadline awareness: a request within 5 ms of its deadline is
//     dispatched next regardless of lane, so near-deadline work is not
//     starved by a full interactive lane. Deadlines are armed at submit
//     time -- queue wait counts against the budget.
//
// Metrics: serve_queue_depth (gauge + peak), serve_submitted_total,
// serve_coalesced_total, serve_mc_batched_total, serve_shed_total,
// serve_wait_ns (admission-to-dispatch latency histogram).

#ifndef CQA_SERVE_SCHEDULER_H_
#define CQA_SERVE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cqa/runtime/metrics.h"
#include "cqa/runtime/request.h"
#include "cqa/serve/ticket.h"

namespace cqa {

class Session;

namespace serve {

/// Platform-stable binary fingerprint over every answer-affecting field
/// of a Request: fixed-width little-endian integers, IEEE-754 bit
/// patterns for doubles, and u64 little-endian length prefixes on every
/// caller-controlled string (so no choice of query or variable names
/// can collide with another request's encoding). Two processes -- or
/// two builds on different platforms -- fingerprint the same request to
/// the same bytes, which is what cross-process coalescing in
/// cqa::served's shard router and the disk-backed result cache key on.
/// The leading byte is a fingerprint-format version: bump it whenever
/// an answer-affecting field is added, so stale disk-cache entries can
/// never alias a new request shape.
std::string request_fingerprint(const Request& request);

class Scheduler {
 public:
  /// Executor count and queue capacity come from the session's
  /// SessionOptions (serve_executors, serve_queue_capacity).
  explicit Scheduler(Session* session);
  ~Scheduler();  // stops executors, resolves every still-queued ticket

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Validates and enqueues; never blocks on execution. The Ticket is
  /// already resolved when validation fails or admission sheds.
  Ticket submit(Request request);

  /// Test seam: executors stop dequeuing (submissions still admit), so
  /// a test can pile up duplicates and assert they coalesce. resume()
  /// restarts dispatch.
  void pause();
  void resume();

  std::size_t queue_depth() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    Request request;
    std::shared_ptr<TicketState> state;
    Clock::time_point enqueued_at;
    Clock::time_point deadline_at;  // only meaningful if has_deadline
    bool has_deadline = false;
    std::string fingerprint;  // "" = never coalesced
  };

  /// One unit of executor work: a leader job plus the queued duplicates
  /// that will receive copies of its answer.
  struct Exec {
    Job job;
    std::vector<Job> duplicates;
  };

  void executor_loop();
  // All three run under mu_.
  Job pop_head();
  std::vector<Exec> collect_group(Job head);
  bool lanes_empty() const;

  // Runs every member of `group` through run_job, concurrently on the
  // pool, then publishes each answer to its ticket and duplicates from
  // the executor thread.
  void execute(std::vector<Exec> group);
  Result<Answer> run_job(Job& job);
  void publish(const std::shared_ptr<TicketState>& state,
               Result<Answer> result);

  static std::string fingerprint_of(const Request& request);
  static bool mc_batchable(const Request& a, const Request& b);

  Session* session_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Job> lanes_[kNumPriorities];
  std::size_t queued_ = 0;
  bool paused_ = false;
  bool stop_ = false;
  std::vector<std::thread> executors_;

  Gauge* queue_depth_;
  Counter* submitted_;
  Counter* coalesced_;
  Counter* batched_;
  Counter* shed_;
  Histogram* wait_ns_;
};

}  // namespace serve
}  // namespace cqa

#endif  // CQA_SERVE_SCHEDULER_H_

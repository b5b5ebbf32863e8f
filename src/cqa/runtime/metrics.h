// Process-local metrics for the concurrent runtime: named monotonic
// counters and latency histograms. Updates are lock-free (relaxed
// atomics); only first-time registration of a name takes a mutex, so a
// hot path that caches the returned Counter*/Histogram* never contends.
//
// The dump format is one `name value` line per metric (histograms add
// `_count`, `_sum_ns`, and per-bucket lines), greppable from bench
// output and stable enough to assert on in tests.

#ifndef CQA_RUNTIME_METRICS_H_
#define CQA_RUNTIME_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace cqa {

/// Monotonic counter. inc() is wait-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Level gauge (current queue depth, in-flight work): unlike a Counter
/// it moves both ways. add()/sub()/set() are wait-free; `peak` tracks
/// the high-water mark so a dump shows pressure even after it drains.
class Gauge {
 public:
  void add(std::int64_t n = 1) {
    const std::int64_t now =
        value_.fetch_add(n, std::memory_order_relaxed) + n;
    raise_peak(now);
  }
  void sub(std::int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    raise_peak(v);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Reads the high-water mark and resets it to the *current* level, so
  /// each scrape window reports its own peak instead of the process
  /// lifetime's (per-shard overload reporting needs the former). A
  /// concurrent add() racing the reset can only raise the new peak, so
  /// the invariant peak >= value self-heals on the next movement.
  std::int64_t take_peak() {
    return peak_.exchange(value_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;  // absorb() merges peaks only

  void raise_peak(std::int64_t v) {
    std::int64_t cur = peak_.load(std::memory_order_relaxed);
    while (v > cur &&
           !peak_.compare_exchange_weak(cur, v,
                                        std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Latency histogram with power-of-two nanosecond buckets: bucket b
/// counts observations in [2^b, 2^(b+1)) ns (bucket 0 also catches 0).
/// observe() is wait-free.
class Histogram {
 public:
  static constexpr int kBuckets = 48;  // 2^48 ns ~ 3.3 days: plenty

  void observe_ns(std::uint64_t ns);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;  // absorb() merges raw buckets

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Registry of named counters and histograms. Returned pointers are
/// stable for the registry's lifetime; cache them on hot paths.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Value of a counter if registered, 0 otherwise (for tests).
  std::uint64_t counter_value(const std::string& name) const;

  /// Value of a gauge if registered, 0 otherwise (for tests).
  std::int64_t gauge_value(const std::string& name) const;

  /// Plain-text dump, one metric per line, names sorted.
  std::string dump() const;

  /// Adds every counter and histogram of `other` into this registry
  /// (creating names as needed). Lets a harness that runs many
  /// short-lived sessions aggregate their metrics into one registry.
  void absorb(const MetricsRegistry& other);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII timer recording wall time into a Histogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (!h_) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    h_->observe_ns(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cqa

#endif  // CQA_RUNTIME_METRICS_H_

// Sharded, LRU-bounded memo-cache for expensive engine results.
//
// Keys are canonical strings (ParsedQuery::printed(), the printed parse,
// plus any binding/option fingerprint), so textually different
// spellings of the same formula share an entry.
// Values are immutable (FormulaPtr is shared_ptr<const Formula>;
// Rational is copied out under the shard lock), so cached results can be
// handed to any thread.
//
// Sharding bounds lock contention: a key hashes to one shard, each shard
// is an independent mutex + LRU list + hash index. Capacity is enforced
// per shard (total/shards, min 1), so the global footprint is bounded by
// ~capacity entries regardless of access pattern.

#ifndef CQA_RUNTIME_EVAL_CACHE_H_
#define CQA_RUNTIME_EVAL_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cqa/arith/rational.h"
#include "cqa/logic/formula.h"
#include "cqa/runtime/metrics.h"
#include "cqa/util/cancellation.h"

namespace cqa {

/// Aggregated cache accounting.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  /// Entries whose checksum failed verification on lookup (dropped and
  /// recomputed by the caller; nonzero means corruption was *caught*).
  std::uint64_t checksum_failures = 0;
};

/// A sharded LRU map from canonical-string keys to values of type V.
template <typename V>
class ShardedLru {
 public:
  /// `capacity` is the total entry bound across shards; optional metric
  /// counters (may be null) are bumped alongside the internal stats.
  ShardedLru(std::size_t capacity, std::size_t shards, Counter* hits,
             Counter* misses, Counter* evictions)
      : per_shard_capacity_(
            std::max<std::size_t>(1, capacity / std::max<std::size_t>(
                                                    1, shards))),
        hits_metric_(hits),
        misses_metric_(misses),
        evictions_metric_(evictions) {
    shards_.resize(std::max<std::size_t>(1, shards));
    for (auto& s : shards_) s = std::make_unique<Shard>();
  }

  std::optional<V> lookup(const std::string& key) {
    Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (misses_metric_) misses_metric_->inc();
      return std::nullopt;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hits_metric_) hits_metric_->inc();
    return it->second->second;
  }

  void store(const std::string& key, V value) {
    Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      it->second->second = std::move(value);
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return;
    }
    s.lru.emplace_front(key, std::move(value));
    s.index.emplace(key, s.lru.begin());
    if (s.lru.size() > per_shard_capacity_) {
      s.index.erase(s.lru.back().first);
      s.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (evictions_metric_) evictions_metric_->inc();
    }
  }

  CacheStats stats() const {
    CacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mu);
      out.entries += s->lru.size();
    }
    return out;
  }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t per_shard_capacity() const { return per_shard_capacity_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    // front = most recently used; index points into the list.
    std::list<std::pair<std::string, V>> lru;
    std::unordered_map<std::string,
                       typename std::list<std::pair<std::string,
                                                    V>>::iterator>
        index;
  };

  Shard& shard_of(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  Counter* hits_metric_;
  Counter* misses_metric_;
  Counter* evictions_metric_;
};

struct EvalCacheOptions {
  std::size_t rewrite_capacity = 512;
  std::size_t volume_capacity = 512;
  std::size_t shards = 8;
};

/// Registry of in-flight computations, keyed by cache key: the
/// single-flight half of the cache (the LRU dedups *completed* work;
/// this dedups work that is still running). The first thread to join a
/// key becomes its leader and computes; later joiners block until the
/// leader lands the value (store) or abandons (error / scope exit),
/// then retry the cache lookup. A leader re-joining its own key (the
/// volume pipeline re-entering the rewrite lookup it is computing)
/// stays leader and computes inline rather than self-deadlocking.
class FlightTable {
 public:
  enum class JoinResult {
    kLeader,   // caller owns the computation; publish via land/abandon
    kRetry,    // a leader finished meanwhile; redo the cache lookup
    kExpired,  // the follower's own token tripped while it waited
  };

  /// Blocks while another thread leads `key`. `coalesced` (may be null)
  /// is bumped once per blocked joiner -- the serve_coalesced_total
  /// metric counts exactly the duplicate computations avoided. A
  /// blocked joiner polls `token` (may be null): Ticket::cancel cannot
  /// signal this condition variable, and a follower must not sit past
  /// its own deadline behind a slow leader, so a tripped token returns
  /// kExpired and the caller falls back to computing inline (where the
  /// engine's own token polls unwind it down the degradation ladder).
  JoinResult join(const std::string& key, Counter* coalesced,
                  const CancelToken* token);

  /// Leader publishes: the value is in the cache, wake all followers.
  /// No-op unless the calling thread leads `key` (idempotent, and safe
  /// against a racing synchronous store from a non-serve thread).
  void land(const std::string& key);

  /// Drops every flight the calling thread still leads (computation
  /// errored out before store). Followers wake, retry, and the first
  /// one to re-join becomes the new leader. Returns the number dropped.
  std::size_t abandon_thread();

  std::size_t in_flight() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, std::thread::id> flights_;
};

/// True while the calling thread runs a request on behalf of the
/// serving layer. Single-flight joins happen only in this context:
/// synchronous Session::run keeps the plain lookup/compute/store path,
/// because a blocking join would change its latency contract and the
/// serve layer is the first place where requests interact.
bool in_serve_context();

/// The cancel token of the request the calling serve thread is
/// currently running (null when none is bound). FlightTable followers
/// poll it so a blocked joiner wakes when its own deadline expires or
/// its ticket is cancelled, instead of waiting on the leader.
const CancelToken* current_serve_token();

/// RAII binding of a request's token to the calling serve thread;
/// nests (restores the previous binding on destruction). Installed by
/// serve::Scheduler around each job execution.
class ServeTokenScope {
 public:
  explicit ServeTokenScope(const CancelToken* token);
  ~ServeTokenScope();
  ServeTokenScope(const ServeTokenScope&) = delete;
  ServeTokenScope& operator=(const ServeTokenScope&) = delete;

 private:
  const CancelToken* previous_;
};

/// RAII serve-context marker, installed by serve::Scheduler executors
/// around each request. On exit it abandons any flights the thread
/// still leads (the computation failed before landing), so followers
/// can never be stranded by a leader that errored.
class ServeFlightScope {
 public:
  explicit ServeFlightScope(class EvalCache* cache);
  ~ServeFlightScope();
  ServeFlightScope(const ServeFlightScope&) = delete;
  ServeFlightScope& operator=(const ServeFlightScope&) = delete;

 private:
  class EvalCache* cache_;
};

/// The runtime's memo-cache: rewrite results (quantifier-eliminated
/// formulas) and exact volume results, independently LRU-bounded.
///
/// Reads are checksum-verified: every entry carries a content checksum
/// computed at store time and re-verified at lookup. A mismatch (bit
/// rot, or the cqa::guard kCachePoison chaos fault) is counted, the
/// entry is treated as a miss, and the caller recomputes + overwrites --
/// a poisoned cache can cost latency but never a silently wrong answer.
///
/// In serve context (see ServeFlightScope) lookups additionally join a
/// FlightTable: a miss on a key another serve thread is already
/// computing blocks until that leader stores (then hits) instead of
/// recomputing -- N identical concurrent requests cost one computation
/// plus N reads.
class EvalCache {
 public:
  explicit EvalCache(EvalCacheOptions options = {},
                     MetricsRegistry* metrics = nullptr);

  std::optional<FormulaPtr> lookup_rewrite(const std::string& key);
  void store_rewrite(const std::string& key, FormulaPtr value);

  std::optional<Rational> lookup_volume(const std::string& key);
  void store_volume(const std::string& key, Rational value);

  CacheStats rewrite_stats() const;
  CacheStats volume_stats() const;
  /// Both kinds combined.
  CacheStats stats() const;

 private:
  friend class ServeFlightScope;

  // One verified read of the underlying LRU (nullopt on miss or
  // checksum failure); the serve-context wrappers loop join() around
  // these.
  std::optional<FormulaPtr> lookup_rewrite_once(const std::string& key);
  std::optional<Rational> lookup_volume_once(const std::string& key);
  template <typename V>
  struct Checked {
    V value;
    std::uint64_t sum = 0;
  };

  ShardedLru<Checked<FormulaPtr>> rewrites_;
  ShardedLru<Checked<Rational>> volumes_;
  FlightTable rewrite_flights_;
  FlightTable volume_flights_;
  std::atomic<std::uint64_t> rewrite_checksum_failures_{0};
  std::atomic<std::uint64_t> volume_checksum_failures_{0};
  Counter* checksum_fail_metric_ = nullptr;
  Counter* coalesced_metric_ = nullptr;
};

}  // namespace cqa

#endif  // CQA_RUNTIME_EVAL_CACHE_H_

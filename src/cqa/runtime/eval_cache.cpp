#include "cqa/runtime/eval_cache.h"

#include <chrono>

#include "cqa/guard/fault.h"

namespace cqa {

namespace {

Counter* metric_or_null(MetricsRegistry* metrics, const char* name) {
  return metrics ? metrics->counter(name) : nullptr;
}

// Content checksums: a structural FNV-1a fold for formulas (no printing),
// the rational's own hash for volumes. Salted so an all-zero corrupted
// entry never accidentally verifies.
constexpr std::uint64_t kChecksumSalt = 0x9e3779b97f4a7c15ULL;

std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 1099511628211ULL;
}

std::uint64_t checksum_poly(std::uint64_t h, const Polynomial& p) {
  for (const auto& [monomial, coeff] : p.terms()) {
    for (unsigned e : monomial) h = fold(h, e);
    h = fold(h, coeff.hash());
  }
  return h;
}

// Every payload field of every node, children in order.
std::uint64_t checksum_formula(const FormulaPtr& f,
                               std::uint64_t h = kChecksumSalt) {
  h = fold(h, static_cast<std::uint64_t>(f->kind()) * 8 +
                  static_cast<std::uint64_t>(f->op()));
  h = checksum_poly(h, f->poly());
  for (const Polynomial& a : f->args()) h = checksum_poly(h, a);
  h = fold(fold(h, std::hash<std::string>{}(f->pred_name())), f->var());
  for (const FormulaPtr& c : f->children()) h = checksum_formula(c, h);
  return fold(h, f->active_domain() ? 1 : 2);
}

std::uint64_t checksum_rational(const Rational& r) {
  return static_cast<std::uint64_t>(r.hash()) ^ kChecksumSalt;
}

// The kCachePoison chaos fault corrupts the *stored* checksum, modeling
// an entry whose bytes rotted after being written.
std::uint64_t maybe_poison(std::uint64_t sum) {
  if (guard::fault_fires(guard::FaultSite::kCachePoison)) {
    return sum ^ 0xbadc0ffee0ddf00dULL;
  }
  return sum;
}

// Serve-context marker. A depth counter (not a flag) keeps nested
// scopes -- a scheduler executor running a request that spawns another
// scoped section -- well defined.
thread_local int tl_serve_depth = 0;

// The token of the request this serve thread is running, polled by
// blocked FlightTable followers (see ServeTokenScope).
thread_local const CancelToken* tl_serve_token = nullptr;

}  // namespace

bool in_serve_context() { return tl_serve_depth > 0; }

const CancelToken* current_serve_token() { return tl_serve_token; }

ServeTokenScope::ServeTokenScope(const CancelToken* token)
    : previous_(tl_serve_token) {
  tl_serve_token = token;
}

ServeTokenScope::~ServeTokenScope() { tl_serve_token = previous_; }

ServeFlightScope::ServeFlightScope(EvalCache* cache) : cache_(cache) {
  ++tl_serve_depth;
}

ServeFlightScope::~ServeFlightScope() {
  --tl_serve_depth;
  if (cache_ != nullptr) {
    cache_->rewrite_flights_.abandon_thread();
    cache_->volume_flights_.abandon_thread();
  }
}

FlightTable::JoinResult FlightTable::join(const std::string& key,
                                          Counter* coalesced,
                                          const CancelToken* token) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = flights_.find(key);
  if (it == flights_.end()) {
    flights_.emplace(key, std::this_thread::get_id());
    return JoinResult::kLeader;
  }
  if (it->second == std::this_thread::get_id()) {
    // Recursive lookup of a key this thread is already computing (the
    // volume pipeline consulting the rewrite entry it leads): compute
    // inline; the nested store lands the flight early, which is fine.
    return JoinResult::kLeader;
  }
  if (coalesced) coalesced->inc();
  // Wait until no flight exists for the key. A *new* leader may take
  // over between the wake and the predicate re-check; keep waiting on
  // it -- the caller only cares that some leader published or died.
  // The wait is periodic because the follower's own token can trip
  // without anyone signalling this cv (Ticket::cancel, deadline
  // expiry): a follower that outlived its budget leaves the queue
  // instead of head-of-line blocking an executor behind a slow leader.
  for (;;) {
    const bool gone =
        cv_.wait_for(lock, std::chrono::milliseconds(1),
                     [&] { return flights_.find(key) == flights_.end(); });
    if (gone) return JoinResult::kRetry;
    if (token_expired(token)) return JoinResult::kExpired;
  }
}

void FlightTable::land(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = flights_.find(key);
  if (it != flights_.end() && it->second == std::this_thread::get_id()) {
    flights_.erase(it);
    cv_.notify_all();
  }
}

std::size_t FlightTable::abandon_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  for (auto it = flights_.begin(); it != flights_.end();) {
    if (it->second == std::this_thread::get_id()) {
      it = flights_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) cv_.notify_all();
  return dropped;
}

std::size_t FlightTable::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

EvalCache::EvalCache(EvalCacheOptions options, MetricsRegistry* metrics)
    : rewrites_(options.rewrite_capacity, options.shards,
                metric_or_null(metrics, "cache_hits_total"),
                metric_or_null(metrics, "cache_misses_total"),
                metric_or_null(metrics, "cache_evictions_total")),
      volumes_(options.volume_capacity, options.shards,
               metric_or_null(metrics, "cache_hits_total"),
               metric_or_null(metrics, "cache_misses_total"),
               metric_or_null(metrics, "cache_evictions_total")),
      checksum_fail_metric_(
          metric_or_null(metrics, "guard_cache_poison_detected_total")),
      coalesced_metric_(metric_or_null(metrics, "serve_coalesced_total")) {}

std::optional<FormulaPtr> EvalCache::lookup_rewrite_once(
    const std::string& key) {
  auto entry = rewrites_.lookup(key);
  if (!entry) return std::nullopt;
  if (checksum_formula(entry->value) != entry->sum) {
    rewrite_checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    if (checksum_fail_metric_) checksum_fail_metric_->inc();
    return std::nullopt;  // caller recomputes and overwrites the entry
  }
  return std::move(entry->value);
}

std::optional<FormulaPtr> EvalCache::lookup_rewrite(const std::string& key) {
  if (!in_serve_context()) return lookup_rewrite_once(key);
  for (;;) {
    if (auto hit = lookup_rewrite_once(key)) return hit;
    switch (rewrite_flights_.join(key, coalesced_metric_,
                                  current_serve_token())) {
      case FlightTable::JoinResult::kLeader:
        // Miss returned to the engine, which computes and stores
        // (landing the flight) -- or errors, in which case the
        // ServeFlightScope abandons the flight and a follower takes
        // over.
        return std::nullopt;
      case FlightTable::JoinResult::kExpired:
        // This request's own token tripped while it waited: report a
        // miss (without becoming leader) so the engine starts
        // computing, notices the expired token at its next poll, and
        // degrades down the normal ladder.
        return std::nullopt;
      case FlightTable::JoinResult::kRetry:
        // A leader landed or abandoned while we waited: retry the
        // lookup.
        break;
    }
  }
}

void EvalCache::store_rewrite(const std::string& key, FormulaPtr value) {
  Checked<FormulaPtr> entry;
  entry.sum = maybe_poison(checksum_formula(value));
  entry.value = std::move(value);
  rewrites_.store(key, std::move(entry));
  rewrite_flights_.land(key);
}

std::optional<Rational> EvalCache::lookup_volume_once(
    const std::string& key) {
  auto entry = volumes_.lookup(key);
  if (!entry) return std::nullopt;
  if (checksum_rational(entry->value) != entry->sum) {
    volume_checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    if (checksum_fail_metric_) checksum_fail_metric_->inc();
    return std::nullopt;
  }
  return std::move(entry->value);
}

std::optional<Rational> EvalCache::lookup_volume(const std::string& key) {
  if (!in_serve_context()) return lookup_volume_once(key);
  for (;;) {
    if (auto hit = lookup_volume_once(key)) return hit;
    switch (volume_flights_.join(key, coalesced_metric_,
                                 current_serve_token())) {
      case FlightTable::JoinResult::kLeader:
      case FlightTable::JoinResult::kExpired:
        return std::nullopt;
      case FlightTable::JoinResult::kRetry:
        break;
    }
  }
}

void EvalCache::store_volume(const std::string& key, Rational value) {
  Checked<Rational> entry;
  entry.sum = maybe_poison(checksum_rational(value));
  entry.value = std::move(value);
  volumes_.store(key, std::move(entry));
  volume_flights_.land(key);
}

CacheStats EvalCache::rewrite_stats() const {
  CacheStats out = rewrites_.stats();
  out.checksum_failures =
      rewrite_checksum_failures_.load(std::memory_order_relaxed);
  return out;
}

CacheStats EvalCache::volume_stats() const {
  CacheStats out = volumes_.stats();
  out.checksum_failures =
      volume_checksum_failures_.load(std::memory_order_relaxed);
  return out;
}

CacheStats EvalCache::stats() const {
  const CacheStats r = rewrite_stats();
  const CacheStats v = volume_stats();
  CacheStats out;
  out.hits = r.hits + v.hits;
  out.misses = r.misses + v.misses;
  out.evictions = r.evictions + v.evictions;
  out.entries = r.entries + v.entries;
  out.checksum_failures = r.checksum_failures + v.checksum_failures;
  return out;
}

}  // namespace cqa

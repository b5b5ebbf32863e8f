#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "cqa/core/constraint_database.h"
#include "cqa/core/query_engine.h"
#include "cqa/runtime/eval_cache.h"
#include "cqa/runtime/metrics.h"
#include "cqa/runtime/session.h"

namespace cqa {
namespace {

TEST(ShardedLru, EvictsLeastRecentlyUsed) {
  ShardedLru<int> lru(3, 1, nullptr, nullptr, nullptr);
  lru.store("a", 1);
  lru.store("b", 2);
  lru.store("c", 3);
  ASSERT_TRUE(lru.lookup("a").has_value());  // touch: b is now LRU
  lru.store("d", 4);                         // evicts b
  EXPECT_FALSE(lru.lookup("b").has_value());
  EXPECT_EQ(lru.lookup("a").value(), 1);
  EXPECT_EQ(lru.lookup("c").value(), 3);
  EXPECT_EQ(lru.lookup("d").value(), 4);
  EXPECT_EQ(lru.stats().evictions, 1u);
}

TEST(ShardedLru, StoreOverwritesAndTouches) {
  ShardedLru<int> lru(2, 1, nullptr, nullptr, nullptr);
  lru.store("a", 1);
  lru.store("b", 2);
  lru.store("a", 10);  // overwrite, now MRU
  lru.store("c", 3);   // evicts b
  EXPECT_EQ(lru.lookup("a").value(), 10);
  EXPECT_FALSE(lru.lookup("b").has_value());
}

TEST(ShardedLru, ShardingBoundsTotalFootprint) {
  ShardedLru<int> lru(64, 8, nullptr, nullptr, nullptr);
  EXPECT_EQ(lru.shard_count(), 8u);
  EXPECT_EQ(lru.per_shard_capacity(), 8u);
  for (int i = 0; i < 1000; ++i) {
    lru.store("key" + std::to_string(i), i);
  }
  const CacheStats s = lru.stats();
  EXPECT_LE(s.entries, 64u);
  EXPECT_GE(s.evictions, 1000u - 64u);
}

TEST(EvalCache, CountsIntoMetricsRegistry) {
  MetricsRegistry metrics;
  EvalCache cache(EvalCacheOptions{4, 4, 1}, &metrics);
  EXPECT_FALSE(cache.lookup_volume("k").has_value());
  cache.store_volume("k", Rational(1, 3));
  EXPECT_EQ(cache.lookup_volume("k").value(), Rational(1, 3));
  EXPECT_EQ(metrics.counter_value("cache_hits_total"), 1u);
  EXPECT_EQ(metrics.counter_value("cache_misses_total"), 1u);
  // LRU bound produces evictions, visible in the registry.
  for (int i = 0; i < 16; ++i) {
    std::string key = "v";
    key += std::to_string(i);
    cache.store_volume(key, Rational(i));
  }
  EXPECT_GE(metrics.counter_value("cache_evictions_total"), 1u);
}

TEST(FlightTable, FollowerWakesOnItsOwnTokenExpiry) {
  // A follower blocked behind a slow leader must not wait past its own
  // cancellation: Ticket::cancel never signals the flight cv, so the
  // periodic wait has to notice the tripped token and return kExpired.
  FlightTable flights;
  // Take the flight from another thread and never land it, simulating a
  // leader stuck mid-computation.
  std::thread leader([&] { flights.join("k", nullptr, nullptr); });
  leader.join();
  ASSERT_EQ(flights.in_flight(), 1u);

  CancelToken token;
  token.cancel();
  EXPECT_EQ(flights.join("k", nullptr, &token),
            FlightTable::JoinResult::kExpired);
  // Without a token the same joiner would still be a plain follower --
  // the flight is intact, not stolen.
  EXPECT_EQ(flights.in_flight(), 1u);
}

TEST(QueryEngine, CanonicalKeyIgnoresSpelling) {
  ConstraintDatabase db;
  QueryEngine engine(&db);
  // The printed parse is the root of every cache key.
  auto a = engine.parse("0 <= x & x <= 1");
  auto b = engine.parse("(0<=x)   &   (x<=1)");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().printed(), b.value().printed());
  auto c = engine.parse("0 <= x & x <= 2");
  ASSERT_TRUE(c.is_ok());
  EXPECT_NE(a.value().printed(), c.value().printed());
}

TEST(Session, RepeatedRewriteHitsCache) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.add_region("Parcel", {"x", "y"},
                            "0 <= x & x <= 2 & 0 <= y & y <= 1")
                  .is_ok());
  Session session(&db, SessionOptions{.threads = 1});
  const std::string query = "E y. Parcel(x, y)";
  auto first = session.run(Request::rewrite(query));
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(session.cache().rewrite_stats().hits, 0u);
  // Different spelling, same parse tree: still a hit.
  auto second = session.run(Request::rewrite("E y.   Parcel(x,y)"));
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(session.cache().rewrite_stats().hits, 1u);
  EXPECT_EQ(session.metrics().counter_value("cache_hits_total"), 1u);
  EXPECT_EQ(session.metrics().counter_value("qe_rewrites_total"), 2u);
  // The cached formula is the same object, not a recomputation.
  EXPECT_EQ(first.value().formula.get(), second.value().formula.get());
}

TEST(Session, RepeatedExactVolumeHitsCache) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.add_region("Parcel", {"x", "y"},
                            "0 <= x & x <= 2 & 0 <= y & y <= 1")
                  .is_ok());
  Session session(&db, SessionOptions{.threads = 1});
  auto first = session.run(Request::volume("Parcel(x, y)").vars({"x", "y"}));
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(first.value().volume.exact.has_value());
  EXPECT_EQ(*first.value().volume.exact, Rational(2));
  EXPECT_EQ(session.cache().volume_stats().hits, 0u);
  auto second = session.run(Request::volume("Parcel(x,y)").vars({"x", "y"}));
  ASSERT_TRUE(second.is_ok());
  ASSERT_TRUE(second.value().volume.exact.has_value());
  EXPECT_EQ(*second.value().volume.exact, Rational(2));
  EXPECT_EQ(session.cache().volume_stats().hits, 1u);
}

TEST(Session, VolumeCacheKeySeparatesOutputVarsAndStrategy) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.add_region("Box", {"x", "y"},
                            "0 <= x & x <= 1 & 0 <= y & y <= 3")
                  .is_ok());
  Session session(&db, SessionOptions{.threads = 1});
  auto xy = session.run(Request::volume("Box(x, y)").vars({"x", "y"}));
  ASSERT_TRUE(xy.is_ok());
  EXPECT_EQ(*xy.value().volume.exact, Rational(3));
  // Same query text, different strategy: distinct entry, not a wrong hit.
  auto ie = session.run(Request::volume("Box(x, y)")
                            .vars({"x", "y"})
                            .strategy(VolumeStrategy::kInclusionExclusion));
  ASSERT_TRUE(ie.is_ok());
  EXPECT_EQ(*ie.value().volume.exact, Rational(3));
  EXPECT_EQ(session.cache().volume_stats().hits, 0u);
  EXPECT_EQ(session.cache().volume_stats().entries, 2u);
}

TEST(Session, MetricsDumpContainsCounters) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.add_region("Box", {"x"}, "0 <= x & x <= 1").is_ok());
  Session session(&db, SessionOptions{.threads = 1});
  ASSERT_TRUE(session.run(Request::volume("Box(x)").vars({"x"})).is_ok());
  const std::string dump = session.metrics_dump();
  EXPECT_NE(dump.find("volume_calls_total 1"), std::string::npos);
  EXPECT_NE(dump.find("qe_rewrites_total"), std::string::npos);
  EXPECT_NE(dump.find("volume_call_ns_count 1"), std::string::npos);
}

}  // namespace
}  // namespace cqa

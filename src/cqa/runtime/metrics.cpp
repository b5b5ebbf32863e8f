#include "cqa/runtime/metrics.h"

#include <sstream>

namespace cqa {

void Histogram::observe_ns(std::uint64_t ns) {
  int b = 0;
  while ((ns >> (b + 1)) != 0 && b + 1 < kBuckets) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::int64_t MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

void MetricsRegistry::absorb(const MetricsRegistry& other) {
  // Snapshot `other` under its lock, then merge under ours; never hold
  // both (same-order deadlock risk if two registries absorb each other).
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauge_peaks;
  struct HistSnapshot {
    std::uint64_t buckets[Histogram::kBuckets];
    std::uint64_t count;
    std::uint64_t sum_ns;
  };
  std::map<std::string, HistSnapshot> histograms;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    for (const auto& [name, c] : other.counters_) {
      counters[name] = c->value();
    }
    for (const auto& [name, g] : other.gauges_) {
      gauge_peaks[name] = g->peak();
    }
    for (const auto& [name, h] : other.histograms_) {
      HistSnapshot& snap = histograms[name];
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        snap.buckets[b] = h->bucket(b);
      }
      snap.count = h->count();
      snap.sum_ns = h->sum_ns();
    }
  }
  for (const auto& [name, value] : counters) {
    if (value != 0) counter(name)->inc(value);
  }
  // Gauges are levels, not totals: merging current values from a
  // finished session would be meaningless, so absorb keeps the max of
  // the high-water marks instead.
  for (const auto& [name, pk] : gauge_peaks) {
    gauge(name)->raise_peak(pk);
  }
  for (const auto& [name, snap] : histograms) {
    Histogram* h = histogram(name);
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (snap.buckets[b] != 0) {
        h->buckets_[b].fetch_add(snap.buckets[b],
                                 std::memory_order_relaxed);
      }
    }
    if (snap.count != 0) {
      h->count_.fetch_add(snap.count, std::memory_order_relaxed);
    }
    if (snap.sum_ns != 0) {
      h->sum_ns_.fetch_add(snap.sum_ns, std::memory_order_relaxed);
    }
  }
}

std::string MetricsRegistry::dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out << name << ' ' << g->value() << '\n';
    out << name << "_peak " << g->peak() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out << name << "_count " << h->count() << '\n';
    out << name << "_sum_ns " << h->sum_ns() << '\n';
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h->bucket(b);
      if (n == 0) continue;
      out << name << "_bucket_le_" << (2ull << b) << "ns " << n << '\n';
    }
  }
  return out.str();
}

}  // namespace cqa

// Process accounting, statistics, seeded generation helpers and the
// result line of the cqa benchmark program.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::logic_error("Rng::range: empty range");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

std::string milli(std::int64_t n) { return std::to_string(n) + "/1000"; }

void CheckTally::fail(std::size_t index, const Item& item,
                      const std::string& why) {
  ++wrong;
  std::fprintf(stderr, "WRONG ANSWER #%zu [%s] %s\n  query: %s\n", index,
               item.cls.c_str(), why.c_str(), item.request.query.c_str());
}

void CheckTally::error(std::size_t index, const Item& item,
                       const std::string& why) {
  ++errors;
  std::fprintf(stderr, "error answer #%zu [%s] %s\n", index,
               item.cls.c_str(), why.c_str());
}

bool CheckTally::correct() const {
  return wrong == 0 &&
         static_cast<double>(mc_misses) <=
             std::max(1.0, delta * static_cast<double>(mc_checked));
}

bool check_mc_estimate(std::size_t index, const Item& item,
                       const cqa::Answer& a, CheckTally* tally) {
  ++tally->mc_checked;
  if (!a.volume.estimate || !item.truth) {
    tally->fail(index, item, "Monte-Carlo answer without an estimate");
    return false;
  }
  const double err = std::fabs(*a.volume.estimate - *item.truth);
  if (err <= item.request.budget.epsilon) return true;
  ++tally->mc_misses;
  std::fprintf(stderr,
               "mc miss #%zu [%s]: estimate %.6f truth %.6f eps %.4f\n",
               index, item.cls.c_str(), *a.volume.estimate, *item.truth,
               item.request.budget.epsilon);
  return false;
}

std::size_t sequence_length(const std::string& workload, int seconds) {
  // Nominal requests per second of run length. The sequence is fixed
  // by (seed, seconds); for the closed loops these rates only size it
  // so a run lasts about `seconds` on a 4-vCPU box.
  double rate = 0;
  if (workload == "exact_cold") rate = 450;
  if (workload == "mc_poly") rate = 220;
  return static_cast<std::size_t>(rate * seconds);
}

}  // namespace perfbench

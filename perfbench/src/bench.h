// Shared declarations of the cqa benchmark program (cqa_perfbench).
//
// The program links the repo's libraries and calls only their public
// functions. Each workload is a fixed, seeded request sequence served
// in full (no duration-bounded loops), so every run of one seed serves
// the same mix. See README.md for the workloads and metrics.

#ifndef CQA_PERFBENCH_BENCH_H_
#define CQA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cqa/core/constraint_database.h"
#include "cqa/runtime/request.h"
#include "cqa/runtime/session.h"

namespace perfbench {

// ---- Run parameters --------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string tmpdir;     // per-run scratch (sockets, disk cache)
  std::string trace_out;  // span dump written at the end of a traced run
};

// ---- Result ------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  std::string to_json() const;
};

// ---- Clocks and process accounting -------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// User+sys CPU seconds of this process (all threads).
double self_cpu_seconds();
/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

/// Host CPU-time counters from /proc/stat, for the hypervisor-steal share.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
double steal_frac(const CpuTimes& a, const CpuTimes& b);

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// ---- Deterministic generation -------------------------------------------

/// SplitMix64: the workload generator's only randomness source.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t state_;
};

/// "n/1000" in the parser's rational syntax.
std::string milli(std::int64_t n);

/// One generated request plus what its correctness check needs.
struct Item {
  cqa::Request request;
  std::string cls;  // request class (README), for error messages
  /// Known volume (or truth value as 0/1) when the generator has a
  /// closed form; exact_cold uses kInclusionExclusion instead.
  std::optional<double> truth;
  bool expect_exact = false;  // planner must route to an exact strategy
  bool hot = false;           // repeat of a hot-set request
};

/// The small database exact_cold's region references resolve against.
void load_exact_database(cqa::ConstraintDatabase* db);

/// Fixed seeded request sequences. `n` is the number of timed requests.
std::vector<Item> gen_exact_cold(std::uint64_t seed, std::size_t n);
std::vector<Item> gen_mc_poly(std::uint64_t seed, std::size_t n);
/// The served mix of the traced fleet section.
struct ServedMix {
  std::vector<Item> hot_set;   // warmed at fleet set-up
  std::vector<Item> sequence;  // n requests; repeats hot_set at a fixed share
  /// `burst` distinct batchable forced-MC requests, each twice in a row:
  /// sent at once, the queued ones are fused into MC batches and the
  /// copies coalesced.
  std::vector<Item> burst;
};
ServedMix gen_served_mix(std::uint64_t seed, std::size_t n,
                         std::size_t burst);
/// Cheap, seed-independent requests for warm-up (never in a sequence);
/// `workload` is exact_cold, mc_poly or fleet.
std::vector<Item> gen_warmup(const std::string& workload, std::size_t n);

// ---- Correctness checking -------------------------------------------------

/// Tally of per-answer checks. A wrong answer (a value that disagrees
/// with the reference, bars that exclude the truth) makes the run
/// incorrect; an error answer (typed error status) is an availability
/// failure that only counts against success_frac. Monte-Carlo answers
/// may miss their epsilon with probability delta, so `mc_misses` is
/// judged against the delta share of `mc_checked`.
struct CheckTally {
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  std::uint64_t errors = 0;
  std::uint64_t mc_checked = 0;
  std::uint64_t mc_misses = 0;
  double delta = 0.05;

  void fail(std::size_t index, const Item& item, const std::string& why);
  void error(std::size_t index, const Item& item, const std::string& why);
  /// Answers that did not pass: an MC miss within the delta share
  /// leaves the run correct but still counts here.
  std::uint64_t failed() const { return wrong + errors + mc_misses; }
  /// No wrong answer, and MC misses within the delta share.
  bool correct() const;
};

/// |estimate - truth| <= epsilon for an MC answer; counted in `tally`.
/// Returns false on a miss (which `tally` judges against delta) and on
/// a wrong answer.
bool check_mc_estimate(std::size_t index, const Item& item,
                       const cqa::Answer& a, CheckTally* tally);

// ---- Sessions ----------------------------------------------------------------

/// SessionOptions of the in-process workloads, timed and traced alike.
cqa::SessionOptions closed_loop_session_options();

// ---- Workloads -------------------------------------------------------------

Report run_exact_cold(const Args& args);
Report run_mc_poly(const Args& args);

Report trace_exact_cold(const Args& args);
Report trace_mc_poly(const Args& args);

/// Requests in one timed run: a fixed rate per workload times the run
/// length, so a run's mix depends only on (seed, seconds).
std::size_t sequence_length(const std::string& workload, int seconds);

}  // namespace perfbench

#endif  // CQA_PERFBENCH_BENCH_H_

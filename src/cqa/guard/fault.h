// Deterministic fault injection for chaos-hardening the query path.
//
// A FaultPlan is a seeded set of per-site firing rates; a FaultInjector
// turns the plan into a deterministic fire/no-fire sequence (hash of
// seed, site, and a per-site arrival counter -- no global RNG state, so
// a plan replays bit-identically given the same arrival order per
// site). Faults are injected *below* the oracle layer:
//
//   kBigIntAlloc     BigInt multiply/divmod throws std::bad_alloc
//   kCachePoison     EvalCache stores a corrupted checksum (reads are
//                    checksum-verified, so poison must be *detected*)
//   kSpuriousCancel  sampler chunks / sweep sections act as if the
//                    CancelToken fired
//   kSlowChunk       a sampler chunk sleeps ~1ms (latency, not error)
//   kWorkerThrow     a ThreadPool worker task throws before running
//   kCompileMembership  CompiledMembership::compile aborts with
//                    kResourceExhausted (models quota trips during MC
//                    plan lowering; sessions must degrade, not error)
//
// The wire sites extend the same deterministic SplitMix64 discipline to
// the network boundary. They have no hooks inside the engines; the
// served::ChaosProxy / ChaosSocket layer owns a private FaultInjector
// and consults them per forwarded chunk, so a chaos schedule over the
// wire replays exactly like an in-process FaultPlan:
//
//   kWireTornFrame     a frame is truncated mid-body, then the
//                      connection closes (client must see a typed
//                      retryable error, never a half answer)
//   kWireStalledWrite  a forwarded chunk stalls (latency; exercises
//                      per-attempt deadlines carved from the budget)
//   kWireDisconnect    the connection drops abruptly on a frame
//                      boundary (connection-level failure: safe retry)
//   kWireBitFlip       one bit of a forwarded chunk flips (must be
//                      caught by the frame checksum, never decoded)
//   kWireBlackhole     a connection accepts but never forwards a byte
//                      (models a black-holed host; connect/call
//                      timeouts must fire)
//
// One test-only site sits past the wire sites, outside every chaos plan:
//
//   kExecutorPark      a serve executor runs the injector's park action
//                      before it starts its request group (lets a test
//                      hold a request in flight in a forked worker until
//                      it has signalled that worker)
//
// Hook sites call fault_fires(site), which is a single relaxed atomic
// load + null check when no injector is installed -- zero-cost-when-off
// in the sense that production binaries pay one predictable branch.
//
// Header-only for the same layering reason as meter.h: cqa_arith and
// cqa_runtime both contain hook sites and sit below any guard library.

#ifndef CQA_GUARD_FAULT_H_
#define CQA_GUARD_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

namespace cqa {
namespace guard {

enum class FaultSite : int {
  kBigIntAlloc = 0,
  kCachePoison,
  kSpuriousCancel,
  kSlowChunk,
  kWorkerThrow,
  kCompileMembership,
  // Wire sites (served::ChaosProxy / ChaosSocket only; no engine hooks).
  kWireTornFrame,
  kWireStalledWrite,
  kWireDisconnect,
  kWireBitFlip,
  kWireBlackhole,
  // Test-only latch (no chaos plan draws it).
  kExecutorPark,
};

/// Sites with hooks inside the engines -- the ones FaultPlan::random
/// draws from for in-process chaos trials. The wire sites past this
/// index only fire inside the chaos proxy layer.
inline constexpr std::size_t kNumEngineFaultSites = 6;
inline constexpr std::size_t kNumFaultSites = 12;

inline const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kBigIntAlloc: return "bigint_alloc";
    case FaultSite::kCachePoison: return "cache_poison";
    case FaultSite::kSpuriousCancel: return "spurious_cancel";
    case FaultSite::kSlowChunk: return "slow_chunk";
    case FaultSite::kWorkerThrow: return "worker_throw";
    case FaultSite::kCompileMembership: return "compile_membership";
    case FaultSite::kWireTornFrame: return "wire_torn_frame";
    case FaultSite::kWireStalledWrite: return "wire_stalled_write";
    case FaultSite::kWireDisconnect: return "wire_disconnect";
    case FaultSite::kWireBitFlip: return "wire_bit_flip";
    case FaultSite::kWireBlackhole: return "wire_blackhole";
    case FaultSite::kExecutorPark: return "executor_park";
  }
  return "unknown";
}

/// Seeded per-site firing rates in [0, 1].
struct FaultPlan {
  std::uint64_t seed = 0;
  double rate[kNumFaultSites] = {};

  bool any() const {
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
      if (rate[i] > 0.0) return true;
    }
    return false;
  }

  static FaultPlan none() { return FaultPlan{}; }

  /// Deterministic random plan for chaos runs: picks 1..3 active
  /// *engine* sites (wire sites have no in-process hooks) and a rate
  /// per site from {0.01, 0.05, 0.2, 1.0}. Defined in guard.cpp (not
  /// needed by hot-path hook sites).
  static FaultPlan random(std::uint64_t seed);
};

/// SplitMix64 -- the same finalizer family the sampler streams use;
/// good avalanche, no state beyond the input.
inline std::uint64_t fault_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Turns a FaultPlan into a deterministic fire sequence and counts both
/// checks and fires per site (chaos asserts every fired fault is
/// observable). Thread-safe; arrival order across threads decides which
/// check fires, but the *number* of fires for a given number of checks
/// per site is deterministic only per-site-arrival -- chaos treats fire
/// counts as observations, not expectations.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  bool should_fire(FaultSite site) {
    const auto i = static_cast<std::size_t>(site);
    const std::uint64_t n = checks_[i].fetch_add(1, std::memory_order_relaxed);
    const double r = plan_.rate[i];
    if (r <= 0.0) return false;
    bool fire = r >= 1.0;
    if (!fire) {
      const std::uint64_t h =
          fault_mix(plan_.seed ^ (0x5177u + i * 0x9e3779b9u) ^ (n * 0xff51afd7ULL));
      fire = static_cast<double>(h >> 11) * 0x1.0p-53 < r;
    }
    if (fire) fired_[i].fetch_add(1, std::memory_order_relaxed);
    return fire;
  }

  std::uint64_t fired(FaultSite site) const {
    return fired_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t checks(FaultSite site) const {
    return checks_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  /// What kExecutorPark does when it fires; empty parks nothing. Set it
  /// before installing the injector.
  void set_park_action(std::function<void()> action) {
    park_action_ = std::move(action);
  }
  void park() const {
    if (park_action_) park_action_();
  }

  std::uint64_t fired_total() const {
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
      t += fired_[i].load(std::memory_order_relaxed);
    }
    return t;
  }

 private:
  FaultPlan plan_;
  std::function<void()> park_action_;
  std::atomic<std::uint64_t> checks_[kNumFaultSites] = {};
  std::atomic<std::uint64_t> fired_[kNumFaultSites] = {};
};

/// Global injector slot. One injector at a time, installed only by the
/// chaos harness / tests; hook sites tolerate concurrent uninstall only
/// in the sense that the chaos runner joins all engine work before
/// swapping injectors (same discipline as MetricsRegistry absorption).
inline std::atomic<FaultInjector*>& fault_injector_slot() {
  static std::atomic<FaultInjector*> slot{nullptr};
  return slot;
}

inline void install_fault_injector(FaultInjector* injector) {
  fault_injector_slot().store(injector, std::memory_order_release);
}

inline FaultInjector* current_fault_injector() {
  return fault_injector_slot().load(std::memory_order_acquire);
}

/// The hook every site calls. No injector installed = one atomic load.
inline bool fault_fires(FaultSite site) {
  FaultInjector* f = current_fault_injector();
  return f != nullptr && f->should_fire(site);
}

/// The hook at the kExecutorPark site: runs the park action when it fires.
inline void fault_park() {
  FaultInjector* f = current_fault_injector();
  if (f != nullptr && f->should_fire(FaultSite::kExecutorPark)) f->park();
}

/// RAII install/uninstall for one chaos trial.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector) {
    install_fault_injector(injector);
  }
  ~ScopedFaultInjector() { install_fault_injector(nullptr); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;
};

}  // namespace guard
}  // namespace cqa

#endif  // CQA_GUARD_FAULT_H_

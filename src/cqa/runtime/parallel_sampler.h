// Chunked Theorem-4 Monte-Carlo estimation: the one estimator behind
// every Monte-Carlo volume. Session runs it on its pool, with M from
// mc_sample_size (cqa/plan/planner.h); benches and tests also drive it
// directly, serially or on a pool.
//
// The M-point sample is partitioned into fixed-size chunks; chunk c
// draws its points from Xoshiro(stream_seed(seed, c)) -- a counter-based
// stream -- and counts membership hits with the CompiledMembership batch
// kernel (lowered once in the constructor, parameters bound once per
// estimate call). Per-chunk integer hit counts land in chunk-indexed,
// cache-line-padded slots and are summed in chunk order, so the
// estimate is a pure function of (seed, sample_size, chunk_size):
// bitwise identical whether chunks run serially or on any number of
// pool threads, in any interleaving.
//
// The sample is never materialized whole; chunks stream their draws
// straight into per-thread SoA block scratch, so a chunk is
// allocation-free and per-worker memory stays O(block * dim) at any M.

#ifndef CQA_RUNTIME_PARALLEL_SAMPLER_H_
#define CQA_RUNTIME_PARALLEL_SAMPLER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "cqa/aggregate/database.h"
#include "cqa/approx/monte_carlo.h"
#include "cqa/runtime/thread_pool.h"

namespace cqa {

/// Outcome of a (possibly deadline-bounded) chunked estimation. When a
/// cancel token fires mid-run, the chunks that completed before expiry
/// are whole i.i.d. slices of the planned sample; `evaluated` says how
/// many points that is. Caveat: survivors are selected by finishing
/// before the deadline, and completion time can correlate with hit/miss
/// through short-circuit formula evaluation, so a partial estimate may
/// carry a mild survivorship bias (a complete run has none).
struct McPartial {
  double estimate = 0.0;      // hits / evaluated (0 when evaluated == 0)
  std::size_t hits = 0;       // hits in completed chunks
  std::size_t evaluated = 0;  // points in completed chunks
  std::size_t requested = 0;  // the full sample size M
  bool complete = false;      // evaluated == requested
};

class ParallelSampler {
 public:
  /// Points per chunk unless the caller picks another; part of the
  /// sample's identity (chunk c draws from stream_seed(seed, c)).
  static constexpr std::size_t kDefaultChunkSize = 2048;

  /// `phi` is inlined against `db` and lowered into a CompiledMembership
  /// plan once, up front (failure surfaces from estimate()).
  /// `element_vars` are the volume variables y (the sample lives in
  /// [0,1]^|y|); `sample_size` is M, from mc_sample_size or any size
  /// the caller wants. Plan compilation charges
  /// `meter` when given; a quota trip (or the kCompileMembership chaos
  /// fault) surfaces as kResourceExhausted, which sessions degrade down
  /// the guard ladder.
  ParallelSampler(const Database* db, FormulaPtr phi,
                  std::vector<std::size_t> element_vars,
                  std::size_t sample_size, std::uint64_t seed,
                  std::size_t chunk_size = kDefaultChunkSize,
                  guard::WorkMeter* meter = nullptr);

  /// Estimated VOL_I(phi(params, D)). `pool == nullptr` is the serial
  /// reference path; any pool produces bitwise-identical results. A run
  /// that does not cover the whole sample is an error, never a partial
  /// estimate: the expired `cancel` token's own status, or kCancelled
  /// when chunks were dropped without one expiring (injected fault).
  Result<double> estimate(const std::map<std::size_t, Rational>& params,
                          ThreadPool* pool = nullptr,
                          const CancelToken* cancel = nullptr) const;

  /// Best-so-far variant: runs chunks until done or `cancel` expires and
  /// reports whatever completed. Without a token (or an unexpired one)
  /// the result is complete and bitwise identical to estimate(). Real
  /// evaluation errors still surface as error Status; expiry does not.
  Result<McPartial> estimate_partial(
      const std::map<std::size_t, Rational>& params, ThreadPool* pool,
      const CancelToken* cancel) const;

  std::size_t sample_size() const { return sample_size_; }
  std::size_t chunk_size() const { return chunk_size_; }
  std::size_t num_chunks() const {
    return sample_size_ == 0 ? 0
                             : (sample_size_ + chunk_size_ - 1) /
                                   chunk_size_;
  }

  /// Minimum points a claimed parallel_for task should cover -- the
  /// cost floor fed to ThreadPool::recommend_grain (a dispatch costs a
  /// shared-counter round trip; a compiled-kernel point costs a few ns).
  static constexpr std::size_t kMinPointsPerTask = 8192;

 private:
  // Per-chunk result slot. Workers write disjoint slots concurrently;
  // one slot per cache line so neighbouring chunks on different threads
  // never ping-pong a line (with plain char flags, 64 chunks share one).
  struct alignas(64) ChunkSlot {
    std::size_t hits = 0;
    char done = 0;
  };

  // Chunks-per-task floor implied by kMinPointsPerTask at this sampler's
  // chunk size.
  std::size_t min_chunks_per_task() const {
    return (kMinPointsPerTask + chunk_size_ - 1) / chunk_size_;
  }

  Status init_;  // inline_predicates + compile outcome
  FormulaPtr inlined_;
  std::vector<std::size_t> element_vars_;
  std::size_t sample_size_;
  std::uint64_t seed_;
  std::size_t chunk_size_;
  CompiledMembership compiled_;
};

}  // namespace cqa

#endif  // CQA_RUNTIME_PARALLEL_SAMPLER_H_

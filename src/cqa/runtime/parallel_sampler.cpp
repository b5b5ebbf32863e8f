#include "cqa/runtime/parallel_sampler.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "cqa/approx/random.h"
#include "cqa/guard/fault.h"

namespace cqa {

ParallelSampler::ParallelSampler(const Database* db, FormulaPtr phi,
                                 std::vector<std::size_t> element_vars,
                                 std::size_t sample_size,
                                 std::uint64_t seed,
                                 std::size_t chunk_size,
                                 guard::WorkMeter* meter)
    : element_vars_(std::move(element_vars)),
      sample_size_(sample_size),
      seed_(seed),
      chunk_size_(std::max<std::size_t>(1, chunk_size)) {
  auto inlined = db->inline_predicates(phi);
  if (!inlined.is_ok()) {
    init_ = inlined.status();
    return;
  }
  inlined_ = inlined.value();
  auto compiled = CompiledMembership::compile(inlined_, element_vars_, meter);
  if (!compiled.is_ok()) {
    init_ = compiled.status();
    return;
  }
  compiled_ = std::move(compiled).take();
}

Result<McPartial> ParallelSampler::estimate_partial(
    const std::map<std::size_t, Rational>& params, ThreadPool* pool,
    const CancelToken* cancel) const {
  CQA_RETURN_IF_ERROR(init_);
  if (sample_size_ == 0) {
    McPartial out;
    out.complete = true;
    return out;
  }
  // Parameters fold into the plan once per call, not once per chunk.
  auto binding = compiled_.bind(params);
  if (!binding.is_ok()) return binding.status();
  const CompiledMembership::Binding& bound = binding.value();
  const std::size_t nchunks = num_chunks();
  std::vector<ChunkSlot> slots(nchunks);
  std::vector<Status> errors(nchunks, Status::ok());

  // Chunk-indexed outputs: no shared mutable state between chunks, and
  // the final reduction runs in chunk order regardless of scheduling.
  // A chunk either completes (done = 1) or is dropped whole -- a chunk
  // interrupted mid-count contributes nothing. Survivors are whichever
  // chunks beat the deadline, so a partial estimate carries the mild
  // survivorship caveat documented on McPartial; a complete run is exact.
  auto eval_chunk = [&](std::size_t c) {
    // Chaos hooks: a spuriously-cancelled chunk is dropped whole --
    // exactly the failure mode the drop-whole-chunk partials are built
    // for -- and a slow chunk models a straggler worker.
    if (token_expired(cancel) ||
        guard::fault_fires(guard::FaultSite::kSpuriousCancel)) {
      return;
    }
    if (guard::fault_fires(guard::FaultSite::kSlowChunk)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::size_t lo = c * chunk_size_;
    const std::size_t hi = std::min(sample_size_, lo + chunk_size_);
    // Same counter-based stream as ever: chunk c's points depend only on
    // (seed, c). The compiled kernel draws them coordinate-by-coordinate
    // in Xoshiro::point order, straight into block scratch.
    Xoshiro rng(stream_seed(seed_, c));
    auto r = compiled_.count_hits_stream(bound, &rng, hi - lo, cancel);
    if (r.is_ok()) {
      slots[c].hits = r.value();
      slots[c].done = 1;
    } else if (r.status().code() != StatusCode::kCancelled &&
               r.status().code() != StatusCode::kDeadlineExceeded) {
      errors[c] = r.status();
    }
  };

  if (pool != nullptr) {
    const std::size_t grain = ThreadPool::recommend_grain(
        nchunks, pool->size(), min_chunks_per_task());
    pool->parallel_for(0, nchunks, grain,
                       [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t c = lo; c < hi; ++c) {
                           eval_chunk(c);
                         }
                       });
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) eval_chunk(c);
  }

  // First error in chunk order wins (deterministic across schedules).
  for (const Status& s : errors) {
    CQA_RETURN_IF_ERROR(s);
  }
  McPartial out;
  out.requested = sample_size_;
  for (std::size_t c = 0; c < nchunks; ++c) {
    if (!slots[c].done) continue;
    const std::size_t lo = c * chunk_size_;
    const std::size_t hi = std::min(sample_size_, lo + chunk_size_);
    out.hits += slots[c].hits;
    out.evaluated += hi - lo;
  }
  out.complete = out.evaluated == sample_size_;
  if (out.evaluated > 0) {
    out.estimate = static_cast<double>(out.hits) /
                   static_cast<double>(out.evaluated);
  }
  return out;
}

Result<double> ParallelSampler::estimate(
    const std::map<std::size_t, Rational>& params, ThreadPool* pool,
    const CancelToken* cancel) const {
  auto r = estimate_partial(params, pool, cancel);
  if (!r.is_ok()) return r.status();
  // Refuse with a typed error rather than return a partial estimate as
  // if it covered the full sample.
  if (!r.value().complete) {
    if (cancel != nullptr) CQA_RETURN_IF_ERROR(cancel->check());
    return Status::cancelled("sampler chunks dropped by injected fault");
  }
  return r.value().estimate;
}

}  // namespace cqa

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

// Chunk-indexed outputs: no shared mutable state between chunks, and
// the final reduction runs in chunk order regardless of scheduling.
// A chunk either completes (done = 1) or is dropped whole -- a chunk
// interrupted mid-count contributes nothing. Survivors are whichever
// chunks beat the deadline, so a partial estimate carries the mild
// survivorship caveat documented on McPartial; a complete run is exact.
void ParallelSampler::eval_chunk_into(
    std::size_t c, const CompiledMembership::Binding& binding,
    const CancelToken* cancel, ChunkSlot* slot, Status* err_out) const {
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
  auto r = compiled_.count_hits_stream(binding, &rng, hi - lo, cancel);
  if (r.is_ok()) {
    slot->hits = r.value();
    slot->done = 1;
  } else if (r.status().code() != StatusCode::kCancelled &&
             r.status().code() != StatusCode::kDeadlineExceeded) {
    *err_out = r.status();
  }
}

Result<McPartial> ParallelSampler::reduce_partial(
    const std::vector<ChunkSlot>& slots,
    const std::vector<Status>& errors) const {
  // First error in chunk order wins (deterministic across schedules).
  for (const Status& s : errors) {
    CQA_RETURN_IF_ERROR(s);
  }
  McPartial out;
  out.requested = sample_size_;
  const std::size_t nchunks = num_chunks();
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
  const std::size_t nchunks = num_chunks();
  std::vector<ChunkSlot> slots(nchunks);
  std::vector<Status> errors(nchunks, Status::ok());

  auto eval_chunk = [&](std::size_t c) {
    eval_chunk_into(c, binding.value(), cancel, &slots[c], &errors[c]);
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
  return reduce_partial(slots, errors);
}

std::vector<Result<McPartial>> ParallelSampler::estimate_partial_batch(
    const std::vector<McBatchItem>& items,
    const std::map<std::size_t, Rational>& params, ThreadPool* pool) {
  const std::size_t n = items.size();
  std::vector<Result<McPartial>> results(
      n, Status::internal("batch slot not filled"));

  // Per-item chunk grids, laid out consecutively in one global index
  // space: global chunk g belongs to the item whose [offset, offset +
  // num_chunks) range contains it. Items that failed to inline/compile
  // or bind (or are empty) occupy zero global chunks and resolve
  // immediately.
  std::vector<CompiledMembership::Binding> bindings(n);
  std::vector<std::vector<ChunkSlot>> slots(n);
  std::vector<std::vector<Status>> errors(n);
  // Allocated after the n-sized vectors: first, its `n + 1` trips a GCC 12
  // -Walloc-size-larger-than false positive on the next allocation.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::size_t min_chunk_points = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ParallelSampler& s = *items[i].sampler;
    std::size_t chunks = 0;
    if (!s.init_.is_ok()) {
      results[i] = s.init_;
    } else if (s.sample_size_ == 0) {
      McPartial out;
      out.complete = true;
      results[i] = out;
    } else {
      auto b = s.compiled_.bind(params);
      if (!b.is_ok()) {
        results[i] = b.status();
      } else {
        bindings[i] = std::move(b).take();
        chunks = s.num_chunks();
        slots[i].assign(chunks, ChunkSlot{});
        errors[i].assign(chunks, Status::ok());
        min_chunk_points = min_chunk_points == 0
                               ? s.chunk_size_
                               : std::min(min_chunk_points, s.chunk_size_);
      }
    }
    offsets[i + 1] = offsets[i] + chunks;
  }
  const std::size_t total = offsets[n];

  auto eval_global = [&](std::size_t g) {
    // Find the owning item: last offset <= g.
    const std::size_t i =
        static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), g) -
            offsets.begin()) -
        1;
    const std::size_t c = g - offsets[i];
    items[i].sampler->eval_chunk_into(c, bindings[i], items[i].cancel,
                                      &slots[i][c], &errors[i][c]);
  };

  if (pool != nullptr) {
    const std::size_t chunks_per_task =
        min_chunk_points == 0
            ? 1
            : (kMinPointsPerTask + min_chunk_points - 1) / min_chunk_points;
    const std::size_t grain =
        ThreadPool::recommend_grain(total, pool->size(), chunks_per_task);
    pool->parallel_for(0, total, grain,
                       [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t g = lo; g < hi; ++g) {
                           eval_global(g);
                         }
                       });
  } else {
    for (std::size_t g = 0; g < total; ++g) eval_global(g);
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (offsets[i + 1] == offsets[i]) continue;  // resolved up front
    results[i] = items[i].sampler->reduce_partial(slots[i], errors[i]);
  }
  return results;
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

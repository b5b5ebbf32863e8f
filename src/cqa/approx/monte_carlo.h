// Theorem 4: Monte-Carlo volume approximation in FO+POLY+SUM+W.
//
// Draw one M-point sample with M from the Blumer bound (d from
// Goldberg-Jerrum or supplied); the fraction of the sample falling in
// phi(a, D) eps-approximates VOL_I(phi(a, D)) *simultaneously for all
// parameters a* with probability >= 1 - delta. The counting is exactly
// the FO+POLY+SUM expressible part; W supplies the sample.
//
// The estimator itself is ParallelSampler (cqa/runtime/parallel_sampler.h),
// run by Session, which sizes M with mc_sample_size (cqa/plan/planner.h)
// and assembles the error bars. This header keeps the reference
// interpreter mc_count_hits() the compiled kernel is tested against and
// the in-language construction of Theorem 4.

#ifndef CQA_APPROX_MONTE_CARLO_H_
#define CQA_APPROX_MONTE_CARLO_H_

#include <map>
#include <vector>

#include "cqa/aggregate/database.h"
#include "cqa/approx/compiled_membership.h"
#include "cqa/approx/random.h"
#include "cqa/util/cancellation.h"

namespace cqa {

/// Reference membership-counting kernel: how many of the `count` points
/// at `points` (each a |element_vars|-vector in [0,1)^m) satisfy the
/// quantifier-free `inlined` formula with `params` bound, via the
/// eval_qf_double tree walk. This is the ground truth the compiled
/// kernel is differentially tested against (the hot paths themselves run
/// CompiledMembership). The loop polls `cancel` every kCancelPollStride
/// points. A params key outside the formula's variable range is a
/// kInvalidArgument, matching CompiledMembership::bind.
Result<std::size_t> mc_count_hits(
    const FormulaPtr& inlined, const std::vector<std::size_t>& element_vars,
    const std::map<std::size_t, Rational>& params,
    const std::vector<double>* points, std::size_t count,
    const CancelToken* cancel = nullptr);

/// Theorem 4 expressed THROUGH the language: W draws the M-sample, the
/// sample is materialized as a finite relation in `db` (name chosen
/// fresh), and the hit count is computed by the language's own safe
/// aggregation over `Sample(y...) & phi(y...)` -- exact rational
/// arithmetic end to end (sample coordinates are exact dyadic rationals).
/// Mutates db (adds the sample relation). Use modest M; every membership
/// test runs through the exact evaluator.
Result<Rational> mc_volume_in_language(
    Database* db, const FormulaPtr& phi,
    const std::vector<std::size_t>& element_vars,
    const std::map<std::size_t, Rational>& params, std::size_t sample_size,
    std::uint64_t seed);

}  // namespace cqa

#endif  // CQA_APPROX_MONTE_CARLO_H_

// The paper's quantitative sample-complexity bounds.
//
// Blumer-Ehrenfeucht-Haussler-Warmuth [10], as quoted in Section 3:
//   M > max( (4/eps) log(2/delta), (8 d / eps) log(13/eps) )
// gives an M-point sample whose hit-fraction eps-approximates VOL_I of
// every set in a VC-dimension-d family simultaneously, w.p. >= 1 - delta.
//
// Goldberg-Jerrum [17], as quoted after Proposition 6: for an active-
// semantics FO+POLY query with |y| = k outputs, quantifier rank q, max
// schema arity p, max polynomial degree d, and s atomic subformulas,
//   C = 16 k (p+q) (log2(8 e d p s) + 1),   VCdim(F_phi(D)) < C log2|D|.

#ifndef CQA_VC_SAMPLE_BOUNDS_H_
#define CQA_VC_SAMPLE_BOUNDS_H_

#include <cstddef>

namespace cqa {

/// Smallest integer M satisfying the Blumer et al. bound. A bound that
/// does not fit std::size_t saturates at SIZE_MAX, which no
/// representable bound reaches.
std::size_t blumer_sample_bound(double epsilon, double delta,
                                double vc_dimension);

/// Goldberg-Jerrum query constant C (logs base 2).
double goldberg_jerrum_constant(std::size_t k, std::size_t p, std::size_t q,
                                std::size_t degree, std::size_t atoms);

/// The Proposition-6 VC-dimension bound C log2 |D|.
double vc_dimension_bound(double c, std::size_t db_size);

}  // namespace cqa

#endif  // CQA_VC_SAMPLE_BOUNDS_H_

// Exact volume of arbitrary semi-linear sets (the Theorem 3 engine).
//
// The paper proves FO+POLY+SUM can express VOL of any semi-linear
// database; the proof is an algorithm, and this module implements it:
//
//   VOL(S) = Integral g(t) dt,   g(t) = VOL_{n-1}(S cap {x_0 = t}).
//
// For semi-linear S the section-volume g is piecewise polynomial of degree
// <= n-1. Its breakpoints lie among the x_0-coordinates of the vertices
// of the arrangement spanned by all cell constraints -- and only of those
// vertices that lie in the closure of some cell: by inclusion-exclusion g
// is a signed sum of section volumes of cell intersections, each a
// polytope whose vertices are such arrangement vertices. We enumerate
// them exactly and integrate g over each open breakpoint interval from n
// exact rational samples (recursing into dimension n-1) by the open
// Newton-Cotes rule, which is exact for polynomials of degree < n.
//
// Each level projects every cell onto x_0 once (its shadow [lo, hi]).
// lo and hi are breakpoints, so on a breakpoint interval a cell is either
// absent or present throughout, and its section at an interior sample is
// full-dimensional and bounded by construction: sections are kept by an
// interval test, and only the top-level call runs the Fourier-Motzkin
// full-dimension and boundedness filters. Unions and overlaps cost
// nothing extra: the recursion bottoms out in 1-D interval merging. The
// sweep is the only exact path for every input, a single cell and
// interior-disjoint cells included, so every exact volume polls the
// cancel token and is charged per section. Lasserre's polytope_volume
// (cqa/geometry) is an independent oracle for it in tests and E2.

#ifndef CQA_VOLUME_SEMILINEAR_VOLUME_H_
#define CQA_VOLUME_SEMILINEAR_VOLUME_H_

#include <vector>

#include "cqa/constraint/linear_cell.h"
#include "cqa/guard/meter.h"
#include "cqa/logic/formula.h"
#include "cqa/util/cancellation.h"

namespace cqa {

/// Statistics of one exact-volume computation (for the benches).
struct VolumeStats {
  std::size_t sweep_calls = 0;        // recursive sweep invocations
  std::size_t breakpoints = 0;        // total breakpoints enumerated
  std::size_t sections_evaluated = 0; // recursive section evaluations
  std::size_t feasibility_calls = 0;  // Fourier-Motzkin feasibility tests
                                      // and projections the sweep ran
};

/// Exact volume of the union of the cells. All cells must share the same
/// ambient dimension and be bounded (error otherwise). Overlaps are fine.
/// An expired `cancel` token aborts the sweep between section
/// evaluations with kCancelled / kDeadlineExceeded; a tripped `meter`
/// quota (sections evaluated, resident-bytes estimate) aborts the same
/// way with kResourceExhausted, so a blowing-up sweep stops within one
/// section of the limit instead of running the whole arrangement.
Result<Rational> semilinear_volume(const std::vector<LinearCell>& cells,
                                   VolumeStats* stats = nullptr,
                                   const CancelToken* cancel = nullptr,
                                   guard::WorkMeter* meter = nullptr);

/// VOL(phi(D)) for a quantifier-free, predicate-free FO+LIN formula with
/// free variables 0..dim-1. The denotation must be bounded.
Result<Rational> formula_volume(const FormulaPtr& f, std::size_t dim);

/// VOL_I: volume of the denotation intersected with [0,1]^dim (always
/// defined; the paper's bounded operator).
Result<Rational> formula_volume_I(const FormulaPtr& f, std::size_t dim);

/// Full-dimensionality test: the cell's interior (all constraints made
/// strict) is nonempty. Lower-dimensional cells have measure zero.
bool is_full_dimensional(const LinearCell& cell);

}  // namespace cqa

#endif  // CQA_VOLUME_SEMILINEAR_VOLUME_H_

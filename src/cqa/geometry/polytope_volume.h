// Exact volume of a single convex polytope (Lasserre recursion).
//
// Kept fully rational: instead of the usual Vol(F_i)/||a_i|| (irrational
// norm) the recursion projects each facet along a coordinate axis j with
// a_ij != 0, using Vol_{n-1}(F_i)/||a_i|| = Vol_{n-1}(proj_j F_i)/|a_ij|.
// Serves inclusion-exclusion (cqa/volume) and the convex-body benches, and
// is an independent oracle for the Theorem-3 sweep engine in cqa/volume.

#ifndef CQA_GEOMETRY_POLYTOPE_VOLUME_H_
#define CQA_GEOMETRY_POLYTOPE_VOLUME_H_

#include "cqa/geometry/polyhedron.h"

namespace cqa {

/// Exact n-volume of a bounded polyhedron. Errors on unbounded input.
/// Lower-dimensional (degenerate) polytopes have volume 0.
Result<Rational> polytope_volume(const Polyhedron& p);

/// Exact volume of the simplex with the given dim+1 vertices
/// (|det| / dim!).
Rational simplex_volume(const std::vector<RVec>& vertices);

}  // namespace cqa

#endif  // CQA_GEOMETRY_POLYTOPE_VOLUME_H_

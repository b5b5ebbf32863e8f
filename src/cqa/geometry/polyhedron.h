// Closed convex polyhedra in H-representation over Q.
//
// A Polyhedron is the topological closure of a LinearCell: volume is
// insensitive to boundaries, so the geometry layer works with closed cells
// (constraints <= and =) only.

#ifndef CQA_GEOMETRY_POLYHEDRON_H_
#define CQA_GEOMETRY_POLYHEDRON_H_

#include <optional>
#include <string>
#include <vector>

#include "cqa/constraint/linear_cell.h"

namespace cqa {

/// Closed convex polyhedron { x in R^dim : A x <= b, E x = f }.
class Polyhedron {
 public:
  /// From a cell (strict inequalities are relaxed to weak ones).
  explicit Polyhedron(const LinearCell& cell);
  /// Ambient dimension with no constraints (= all of R^dim).
  explicit Polyhedron(std::size_t dim) : cell_(dim) {}

  /// Axis-aligned box [lo, hi]^dim.
  static Polyhedron box(std::size_t dim, const Rational& lo,
                        const Rational& hi);
  /// Standard simplex { x >= 0, sum x_i <= s }.
  static Polyhedron simplex(std::size_t dim, const Rational& s);
  /// Convex hull of the given points (dim inferred; exact).
  /// Works in any dimension via a facet-enumeration over point subsets;
  /// intended for small inputs (tests, examples).
  static Result<Polyhedron> hull_of(const std::vector<RVec>& points);

  std::size_t dim() const { return cell_.dim(); }
  const LinearCell& cell() const { return cell_; }
  const std::vector<LinearConstraint>& constraints() const {
    return cell_.constraints();
  }

  bool is_empty() const { return !cell_.is_feasible(); }
  bool is_bounded() const { return cell_.is_bounded(); }
  bool contains(const RVec& p) const { return cell_.contains(p); }

  /// Adds a (closed) constraint.
  void add_constraint(LinearConstraint c) { cell_.add(c.closure()); }

  /// Some point of the polyhedron, if nonempty.
  std::optional<RVec> any_point() const { return cell_.sample_point(); }

  std::string to_string() const { return cell_.to_string(); }

 private:
  LinearCell cell_;
};

}  // namespace cqa

#endif  // CQA_GEOMETRY_POLYHEDRON_H_

#include <gtest/gtest.h>

#include <cmath>

#include "cqa/approx/ellipsoid.h"
#include "cqa/approx/gadgets.h"
#include "cqa/approx/hit_and_run.h"
#include "cqa/approx/monte_carlo.h"
#include "cqa/approx/random.h"
#include "cqa/geometry/polytope_volume.h"
#include "cqa/logic/parser.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/vc/sample_bounds.h"
#include "cqa/volume/semilinear_volume.h"

namespace cqa {
namespace {

TEST(Random, Deterministic) {
  Xoshiro a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
  double u = a.uniform();
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(Random, UniformMoments) {
  Xoshiro rng(7);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double u = rng.uniform();
    sum += u;
    sumsq += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0 / 3.0, 0.02);
}

TEST(MonteCarlo, TriangleVolume) {
  Database db;
  VarTable vars;
  auto f = parse_formula("0 <= x & 0 <= y & x + y <= 1", &vars)
               .value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  ParallelSampler est(&db, f, {x, y}, blumer_sample_bound(0.05, 0.05, 3.0),
                      1234);
  EXPECT_NEAR(est.estimate({}).value_or_die(), 0.5, 0.05);
}

TEST(MonteCarlo, PolynomialDisk) {
  Database db;
  VarTable vars;
  auto f = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  // Quarter disk in [0,1]^2: pi/4.
  ParallelSampler est(&db, f, {x, y}, blumer_sample_bound(0.03, 0.05, 3.0),
                      99);
  EXPECT_NEAR(est.estimate({}).value_or_die(), M_PI / 4.0, 0.03);
}

TEST(MonteCarlo, UniformOverParameters) {
  // Theorem 4's point: ONE sample works for every parameter value.
  Database db;
  VarTable vars;
  auto f = parse_formula("0 <= y1 & y1 <= a & 0 <= y2 & y2 <= 1", &vars)
               .value_or_die();
  std::size_t a = static_cast<std::size_t>(vars.find("a"));
  std::size_t y1 = static_cast<std::size_t>(vars.find("y1"));
  std::size_t y2 = static_cast<std::size_t>(vars.find("y2"));
  ParallelSampler est(&db, f, {y1, y2},
                      blumer_sample_bound(0.05, 0.05, 3.0), 4321);
  double sup_err = 0;
  for (int num = 0; num <= 10; ++num) {
    Rational av(num, 10);
    double got = est.estimate({{a, av}}).value_or_die();
    sup_err = std::max(sup_err, std::fabs(got - av.to_double()));
  }
  EXPECT_LT(sup_err, 0.05);
}

TEST(MonteCarlo, CountHitsRejectsParameterOutsideVariableRange) {
  // The reference interpreter refuses a parameter index the formula
  // cannot bind instead of ignoring it, as CompiledMembership::bind does.
  Database db;
  VarTable vars;
  auto f = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  const std::vector<double> points[] = {{0.25, 0.5}, {0.75, 0.75}};
  auto ok = mc_count_hits(f, {x, y}, {}, points, 2);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 1u);
  auto h = mc_count_hits(f, {x, y}, {{7, Rational(1, 2)}}, points, 2);
  ASSERT_FALSE(h.is_ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
}

TEST(MonteCarlo, RejectsQuantified) {
  Database db;
  VarTable vars;
  auto f = parse_formula("E z. x < z & z < y", &vars).value_or_die();
  ParallelSampler est(&db, f, {0, 1}, blumer_sample_bound(0.1, 0.1, 2.0), 1);
  EXPECT_FALSE(est.estimate({}).is_ok());
}

TEST(Ellipsoid, UnitBallVolumes) {
  EXPECT_NEAR(unit_ball_volume(1), 2.0, 1e-12);
  EXPECT_NEAR(unit_ball_volume(2), M_PI, 1e-12);
  EXPECT_NEAR(unit_ball_volume(3), 4.0 * M_PI / 3.0, 1e-12);
}

TEST(Ellipsoid, MveeOfSquare) {
  std::vector<RVec> pts = {
      {Rational(-1), Rational(-1)},
      {Rational(1), Rational(-1)},
      {Rational(-1), Rational(1)},
      {Rational(1), Rational(1)},
  };
  Ellipsoid e = min_volume_enclosing_ellipsoid(pts).value_or_die();
  // MVEE of the square [-1,1]^2 is the disk of radius sqrt(2).
  EXPECT_NEAR(e.center[0], 0.0, 1e-4);
  EXPECT_NEAR(e.center[1], 0.0, 1e-4);
  EXPECT_NEAR(e.volume(), M_PI * 2.0, 0.05);
  for (const auto& p : pts) {
    EXPECT_TRUE(e.contains({p[0].to_double(), p[1].to_double()}, 1e-3));
  }
}

TEST(Ellipsoid, JohnSandwich) {
  // vol(E)/k^k <= vol(P) <= vol(E), paper's Remark constants.
  for (int trial = 0; trial < 3; ++trial) {
    Polyhedron p =
        trial == 0 ? Polyhedron::box(2, Rational(0), Rational(1))
        : trial == 1
            ? Polyhedron::simplex(2, Rational(2))
            : Polyhedron::box(3, Rational(-1), Rational(2));
    auto bounds = john_volume_bounds(p).value_or_die();
    double exact = polytope_volume(p).value_or_die().to_double();
    EXPECT_LE(bounds.lower, exact * 1.001) << trial;
    EXPECT_GE(bounds.upper * 1.001, exact) << trial;
  }
}

TEST(HitAndRun, CubeVolume) {
  Polyhedron cube = Polyhedron::box(3, Rational(0), Rational(2));
  auto r = hit_and_run_volume(cube, 4000, 2024).value_or_die();
  EXPECT_NEAR(r.volume, 8.0, 1.6);  // randomized: 20% tolerance
  EXPECT_GT(r.phases, 0u);
}

TEST(HitAndRun, SimplexVolume) {
  Polyhedron s = Polyhedron::simplex(3, Rational(1));
  auto r = hit_and_run_volume(s, 4000, 77).value_or_die();
  EXPECT_NEAR(r.volume, 1.0 / 6.0, 0.05);
}

TEST(Gadgets, AvgSeparation) {
  AvgSeparationGadget g(Rational(1, 4));
  // Equal cardinalities: AVG = 1/2 regardless of Delta.
  EXPECT_EQ(g.avg_for_cards(5, 5), Rational(1, 2));
  // Monotone decreasing in the ratio.
  EXPECT_GT(g.avg_for_cards(1, 10), g.avg_for_cards(10, 1));
  EXPECT_EQ(g.avg_for_cards(10, 10), g.avg_for_ratio(Rational(1)));
  // The ratio formula matches the cardinality formula.
  EXPECT_EQ(g.avg_for_cards(6, 2), g.avg_for_ratio(Rational(3)));
  // eps < (1 - Delta)/2 is separable at some finite ratio.
  double c = g.min_separable_ratio(0.1);
  EXPECT_GT(c, 1.0);
  // Sanity: at that ratio the gap really exceeds 2 eps.
  double gap = g.avg_for_ratio(Rational(1, 100)).to_double() -
               g.avg_for_ratio(Rational(100)).to_double();
  EXPECT_GT(gap, 0.2);
  // eps >= (1-Delta)/2 is not separable: gadget reports 0.
  EXPECT_EQ(g.min_separable_ratio(0.49), 0.0);
}

TEST(Gadgets, GoodInstanceVolumes) {
  // n = 4, B = {0, 2}: X = [0, 1/4) U [2/4, 3/4), vol 1/2.
  GoodInstance inst(4, 0b0101);
  EXPECT_EQ(inst.card_b(), 2u);
  EXPECT_EQ(inst.vol_x(), Rational(1, 2));
  EXPECT_EQ(inst.vol_y(), Rational(1, 2));
  // Runs merge: B = {0,1,2}: X = [0, 3/4).
  GoodInstance runs(4, 0b0111);
  EXPECT_EQ(runs.vol_x(), Rational(3, 4));
  EXPECT_EQ(runs.vol_y(), Rational(1, 4));
}

TEST(Gadgets, GoodInstanceVolumeTracksCardinality) {
  // For alternating B, VOL(X) = card(B)/n exactly.
  GoodInstance alt(8, 0b01010101);
  EXPECT_EQ(alt.vol_x(),
            Rational(static_cast<std::int64_t>(alt.card_b()), 8));
  // Lemma 2 thresholds.
  EXPECT_NEAR(GoodInstance::c1(0.1), 0.8 / 3.0, 1e-12);
  EXPECT_NEAR(GoodInstance::c2(0.1), 2.2 / 3.0, 1e-12);
}

TEST(Gadgets, TrivialHalfApproximation) {
  VarTable vars;
  auto mid = parse_formula("0 <= x & x <= 1/2", &vars).value_or_die();
  auto cells = formula_to_cells(mid, 1).value_or_die();
  EXPECT_EQ(trivial_half_approximation(cells, 1).value_or_die(),
            Rational(1, 2));
  auto empty = parse_formula("x < 0 & x > 1", &vars).value_or_die();
  EXPECT_EQ(trivial_half_approximation(
                formula_to_cells(empty, 1).value_or_die(), 1)
                .value_or_die(),
            Rational(0));
  auto full = parse_formula("x >= 0 - 5", &vars).value_or_die();
  EXPECT_EQ(trivial_half_approximation(
                formula_to_cells(full, 1).value_or_die(), 1)
                .value_or_die(),
            Rational(1));
  // Error is always <= 1/2 (Proposition 4).
  auto v = semilinear_volume(
               [&] {
                 std::vector<LinearCell> boxed;
                 for (const auto& c : cells) {
                   boxed.push_back(c.intersect_box(Rational(0), Rational(1)));
                 }
                 return boxed;
               }())
               .value_or_die();
  Rational approx = trivial_half_approximation(cells, 1).value_or_die();
  EXPECT_LE((approx - v).abs(), Rational(1, 2));
}

}  // namespace
}  // namespace cqa

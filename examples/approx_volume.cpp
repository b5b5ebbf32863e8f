// Approximate volume of semi-algebraic sets (Theorem 4 in action).
//
// Exact volume of polynomial-constraint sets is impossible inside the
// language (Sections 3-4); the paper's positive answer is FO+POLY+SUM+W:
// draw one VC-bounded sample and count. This example approximates volumes
// of genuinely nonlinear sets, shows the uniform-over-parameters property,
// and compares against the Lowner-John bounds on a convex body.
//
// Build & run:  ./build/examples/approx_volume

#include <cmath>
#include <cstdio>

#include "cqa/approx/ellipsoid.h"
#include "cqa/approx/hit_and_run.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/runtime/session.h"
#include "cqa/vc/sample_bounds.h"

int main() {
  using namespace cqa;
  ConstraintDatabase db;

  std::printf("== Theorem 4: one sample, eps-accuracy for ALL parameters "
              "==\n");
  const double eps = 0.02, delta = 0.05, vc_dim = 3.0;
  const std::size_t m = blumer_sample_bound(eps, delta, vc_dim);
  std::printf("  Blumer bound: eps=%.2f delta=%.2f d=%.0f -> M = %zu\n",
              eps, delta, vc_dim, m);

  // Family phi(a; x, y) = { (x,y) : x^2 + y^2 <= a } over parameter a.
  auto phi = db.parse("x^2 + y^2 <= a").value_or_die();
  const std::size_t ax = db.var("x"), ay = db.var("y"), aa = db.var("a");
  ParallelSampler est(&db.db(), phi, {ax, ay}, m, /*seed=*/2718);
  double sup_err = 0;
  for (int i = 1; i <= 9; ++i) {
    const double a = i / 10.0;
    const double exact = M_PI * a / 4.0;  // quarter disk of radius sqrt(a)
    const double got =
        est.estimate({{aa, Rational(i, 10)}}).value_or_die();
    sup_err = std::fmax(sup_err, std::fabs(got - exact));
    std::printf("  a=%.1f   VOL_I=%-8.5f estimate=%-8.5f err=%.5f\n", a,
                exact, got, std::fabs(got - exact));
  }
  std::printf("  sup error over the family: %.5f (target eps = %.2f)\n\n",
              sup_err, eps);

  std::printf("== nonlinear sets with known volumes ==\n");
  struct Case {
    const char* name;
    const char* formula;
    double exact;
  } cases[] = {
      {"quarter disk", "x^2 + y^2 <= 1", M_PI / 4.0},
      {"under parabola", "y <= x^2", 1.0 / 3.0},
      {"cubic region", "y <= x^3", 1.0 / 4.0},
      {"octant of ball", "x^2 + y^2 + z^2 <= 1", M_PI / 6.0},
  };
  // Through Session::run, no strategy is named: the planner sees a
  // nonlinear membership-testable formula and routes to Theorem-4 MC.
  Session session(&db);
  for (const Case& c : cases) {
    Request req;
    req.kind = RequestKind::kVolume;
    req.query = c.formula;
    req.output_vars = {"x", "y"};
    if (std::string(c.formula).find('z') != std::string::npos) {
      req.output_vars.push_back("z");
    }
    req.budget.epsilon = 0.02;
    req.seed = 99;
    auto a = session.run(req).value_or_die();
    std::printf("  %-16s exact=%-8.5f estimate=%-8.5f in [%.4f, %.4f]"
                "  (%s)\n",
                c.name, c.exact, *a.volume.estimate, *a.volume.lower,
                *a.volume.upper, strategy_name(a.plan->chosen));
  }

  std::printf("\n== convex baselines on the 3-cube [0,2]^3 (vol 8) ==\n");
  Polyhedron cube = Polyhedron::box(3, Rational(0), Rational(2));
  auto john = john_volume_bounds(cube).value_or_die();
  std::printf("  Lowner-John sandwich:  %.4f <= vol <= %.4f (k^k = 27)\n",
              john.lower, john.upper);
  auto har = hit_and_run_volume(cube, 6000, 4242).value_or_die();
  std::printf("  hit-and-run (DFK '91): %.4f  (%zu phases x %zu samples)\n",
              har.volume, har.phases, har.samples_per_phase);
  return 0;
}

#include "cqa/check/oracles.h"

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cqa/approx/hit_and_run.h"
#include "cqa/approx/random.h"
#include "cqa/guard/fault.h"
#include "cqa/logic/decide.h"
#include "cqa/logic/eval.h"
#include "cqa/logic/transform.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/serve/scheduler.h"

namespace cqa {

namespace {

// Stream tags keeping oracle-local randomness disjoint from the
// generator's and the samplers' streams.
constexpr std::uint64_t kPointStream = 0x504F494E54535431ull;
constexpr std::uint64_t kTransformStream = 0x5452414E53464Dull;

// Samples per phase of the hit-and-run oracle's random walk.
constexpr std::size_t kWalkSamples = 4000;

std::string rat(const Rational& r) {
  return r.to_string();
}

Request volume_request(const GeneratedFormula& g, const CheckContext& ctx,
                       std::uint64_t seed) {
  Request req;
  req.kind = RequestKind::kVolume;
  req.query = g.text();
  req.output_vars = g.output_vars;
  req.budget.epsilon = ctx.epsilon;
  req.budget.delta = ctx.delta;
  req.seed = seed;
  return req;
}

Result<VolumeAnswer> forced_answer(const GeneratedFormula& g,
                                   const CheckContext& ctx,
                                   VolumeStrategy strategy,
                                   std::uint64_t seed) {
  Request req = volume_request(g, ctx, seed);
  req.strategy = strategy;
  auto a = ctx.session->run(req);
  if (!a.is_ok()) return a.status();
  return a.value().volume;
}

// Exact rational volume of an arbitrary formula AST in the generator's
// variable space (printed, then run through the session's exact sweep).
Result<Rational> exact_volume_of(const CheckContext& ctx,
                                 const FormulaPtr& f,
                                 const GeneratedFormula& shape) {
  GeneratedFormula wrapped = shape;
  wrapped.boxed = f;
  auto v = forced_answer(wrapped, ctx, VolumeStrategy::kAuto, shape.seed);
  if (!v.is_ok()) return v.status();
  if (!v.value().exact) {
    return Status::internal("exact sweep returned no exact value");
  }
  return *v.value().exact;
}

Result<Rational> exact_volume(const CheckContext& ctx,
                              const GeneratedFormula& g) {
  return exact_volume_of(ctx, g.boxed, g);
}

// A small random rational with denominator <= 4 in [-max_num/1, ...].
Rational small_rational(Xoshiro* rng, int lo_num, int hi_num) {
  const int span = hi_num - lo_num + 1;
  const int num = lo_num + static_cast<int>(rng->next() % span);
  const int den = 1 + static_cast<int>(rng->next() % 4);
  return Rational(num, den);
}

// ---------------------------------------------------------------------
// Differential oracles
// ---------------------------------------------------------------------

// Theorem 3 vs Theorem 4: the Monte-Carlo bars [lower, upper] must
// contain the exact rational volume -- except with probability <= delta
// per trial, which the runner budgets.
class ExactVsMcOracle : public Oracle {
 public:
  const char* name() const override { return "exact_vs_mc"; }
  bool statistical() const override { return true; }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    auto exact = exact_volume(ctx, g);
    if (!exact.is_ok()) return TrialResult::skip(exact.status().to_string());
    auto mc = forced_answer(g, ctx, VolumeStrategy::kMonteCarlo, trial_seed);
    if (!mc.is_ok()) {
      return TrialResult::fail("MC refused a formula exact accepted: " +
                               mc.status().to_string());
    }
    double lower = mc.value().lower.value_or(0.0);
    double upper = mc.value().upper.value_or(1.0);
    if (inject_fault) {
      // Broken-strategy hook: shift the bars clear of the answer.
      lower += 0.5 + 2 * ctx.epsilon;
      upper += 0.5 + 2 * ctx.epsilon;
    }
    const double x = exact.value().to_double();
    if (x < lower - 1e-9 || x > upper + 1e-9) {
      std::ostringstream why;
      why << "exact " << rat(exact.value()) << " = " << x
          << " outside MC bars [" << lower << ", " << upper << "]";
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

// Theorem 3 vs the DFK hit-and-run estimator on convex regions. The
// estimator is a paper baseline outside the serving ladder, so it runs
// directly on the one cell a kCells request returns. It carries no hard
// (eps, delta) guarantee, so the comparison uses a loose tolerance and
// is budgeted like a statistical oracle.
class ExactVsHitAndRunOracle : public Oracle {
 public:
  const char* name() const override { return "exact_vs_hit_and_run"; }
  bool statistical() const override { return true; }
  GenOptions tune(GenOptions base) const override {
    base.convex_only = true;
    base.quantifiers = 0;
    base.linear_only = true;
    return base;
  }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    auto exact = exact_volume(ctx, g);
    if (!exact.is_ok()) return TrialResult::skip(exact.status().to_string());
    const double x = exact.value().to_double();
    if (x < 0.01) {
      return TrialResult::skip("region too small/degenerate for HAR");
    }
    Request cells = volume_request(g, ctx, trial_seed);
    cells.kind = RequestKind::kCells;
    auto cell = ctx.session->run(cells);
    if (!cell.is_ok() || cell.value().cells.size() != 1) {
      return TrialResult::fail(
          "a convex region did not decompose into one cell: " +
          (cell.is_ok() ? std::to_string(cell.value().cells.size()) +
                              " cells"
                        : cell.status().to_string()));
    }
    auto har = hit_and_run_volume(Polyhedron(cell.value().cells[0]),
                                  kWalkSamples, trial_seed);
    if (!har.is_ok()) {
      return TrialResult::fail(
          "hit-and-run refused a nondegenerate convex region: " +
          har.status().to_string());
    }
    double estimate = har.value().volume;
    if (inject_fault) estimate += 1.0;
    const double tolerance = std::max(0.05, 0.4 * x);
    if (std::abs(estimate - x) > tolerance) {
      std::ostringstream why;
      why << "hit-and-run " << estimate << " vs exact " << x
          << " (tolerance " << tolerance << ")";
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

// Section 2: QE preserves semantics. The raw quantified formula
// (decided by the sample-point procedure) and the QE rewrite (evaluated
// directly) must agree on membership of random rational points.
class QeMembershipOracle : public Oracle {
 public:
  const char* name() const override { return "qe_membership"; }
  GenOptions tune(GenOptions base) const override {
    base.quantifiers = 2;
    base.separable_quantifiers = true;  // keep decide() applicable
    base.linear_only = true;            // QE needs FO+LIN
    base.allow_eq_atoms = true;
    return base;
  }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    Request req;
    req.kind = RequestKind::kRewrite;
    req.query = g.core_text();
    auto rewritten = ctx.session->run(req);
    if (!rewritten.is_ok()) {
      return TrialResult::skip("rewrite failed: " +
                               rewritten.status().to_string());
    }
    const FormulaPtr& qf = rewritten.value().formula;

    Xoshiro rng(stream_seed(trial_seed, kPointStream));
    const std::size_t db_span = ctx.db->vars().size();
    for (int p = 0; p < 8; ++p) {
      // Points inside and outside the unit box (the core is unclipped).
      std::map<std::size_t, Rational> raw_point;
      RVec db_point(db_span, Rational(0));
      for (std::size_t i = 0; i < g.dimension; ++i) {
        const Rational value = small_rational(&rng, -4, 8);
        raw_point[i] = value;
        const int idx = ctx.db->vars().find(g.output_vars[i]);
        if (idx < 0) return TrialResult::fail("output var vanished");
        db_point[static_cast<std::size_t>(idx)] = value;
      }
      auto raw = decide(g.core, raw_point);
      if (!raw.is_ok()) {
        // Outside decide()'s separable fragment: not this oracle's bug.
        return TrialResult::skip("decide: " + raw.status().to_string());
      }
      auto rewritten_truth = eval_qf(qf, db_point);
      if (!rewritten_truth.is_ok()) {
        return TrialResult::fail("eval of QE rewrite failed: " +
                                 rewritten_truth.status().to_string());
      }
      bool qe_says = rewritten_truth.value();
      if (inject_fault) qe_says = !qe_says;
      if (raw.value() != qe_says) {
        std::ostringstream why;
        why << "membership disagrees at point (";
        for (std::size_t i = 0; i < g.dimension; ++i) {
          why << (i ? ", " : "") << rat(raw_point[i]);
        }
        why << "): raw=" << (raw.value() ? "in" : "out")
            << " qe=" << (qe_says ? "in" : "out");
        return TrialResult::fail(why.str());
      }
    }
    return TrialResult::pass();
  }
};

// PR 1's determinism contract: the chunked Theorem-4 sampler returns a
// bitwise identical estimate serially and on the pool.
class SerialVsParallelOracle : public Oracle {
 public:
  const char* name() const override { return "serial_vs_parallel"; }
  GenOptions tune(GenOptions base) const override {
    base.linear_only = false;  // membership sampling covers FO+POLY
    base.quantifiers = 0;
    return base;
  }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    auto parsed = ctx.db->parse(g.text());
    if (!parsed.is_ok()) {
      return TrialResult::fail("generated formula failed to parse: " +
                               parsed.status().to_string());
    }
    std::vector<std::size_t> element_vars;
    for (const auto& var : g.output_vars) {
      const int idx = ctx.db->vars().find(var);
      if (idx < 0) return TrialResult::fail("output var vanished");
      element_vars.push_back(static_cast<std::size_t>(idx));
    }
    // Odd sample size exercises the ragged tail chunk.
    const std::size_t sample_size = 4097;
    ParallelSampler sampler(&ctx.db->db(), parsed.value(), element_vars,
                            sample_size, trial_seed, 256);
    auto serial = sampler.estimate({}, nullptr);
    if (!serial.is_ok()) {
      return TrialResult::skip("sampler: " + serial.status().to_string());
    }
    ParallelSampler pooled_sampler(&ctx.db->db(), parsed.value(),
                                   element_vars, sample_size, trial_seed,
                                   256);
    auto pooled = pooled_sampler.estimate({}, &ctx.session->pool());
    if (!pooled.is_ok()) {
      return TrialResult::fail("pooled sampler errored where serial ran: " +
                               pooled.status().to_string());
    }
    if (inject_fault) {
      // One phantom hit: the smallest nondeterminism a broken chunk
      // merge could introduce, visible on any formula.
      pooled = pooled.value() + 1.0 / static_cast<double>(sample_size);
    }
    if (serial.value() != pooled.value()) {
      std::ostringstream why;
      why.precision(17);
      why << "serial " << serial.value() << " != pooled " << pooled.value();
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

// The memo-cache must be semantically invisible: a cache-hot answer and
// a cache-cold answer (fresh session) are the same exact rational.
class CacheHotVsColdOracle : public Oracle {
 public:
  const char* name() const override { return "cache_hot_vs_cold"; }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    auto first = exact_volume(ctx, g);
    if (!first.is_ok()) return TrialResult::skip(first.status().to_string());
    auto hot = exact_volume(ctx, g);  // served from the volume cache
    if (!hot.is_ok()) {
      return TrialResult::fail("cache-hot rerun failed: " +
                               hot.status().to_string());
    }
    Rational hot_value = hot.value();
    if (inject_fault) hot_value += Rational(1, 3);

    ConstraintDatabase cold_db;
    register_generator_vars(&cold_db.vars(), g.dimension);
    SessionOptions cold_opts;
    cold_opts.threads = 1;
    Session cold_session(&cold_db, cold_opts);
    CheckContext cold_ctx = ctx;
    cold_ctx.db = &cold_db;
    cold_ctx.session = &cold_session;
    auto cold = exact_volume(cold_ctx, g);
    if (!cold.is_ok()) {
      return TrialResult::fail("cache-cold session failed: " +
                               cold.status().to_string());
    }
    if (first.value() != hot_value || hot_value != cold.value()) {
      std::ostringstream why;
      why << "cold " << rat(cold.value()) << " / first "
          << rat(first.value()) << " / hot " << rat(hot_value)
          << " disagree (seed " << trial_seed << ")";
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

// One request, one answer: run() and submit() give the same requests --
// the boxed volume forced exact, and three forced-MC seeds -- the same
// answer field for field, guard report included, when run one at a time
// and when queued together so the MC seeds run as one scheduler group.
// Each side runs on a fresh session, so neither reads the other's
// caches.
class RunVsSubmitOracle : public Oracle {
 public:
  const char* name() const override { return "run_vs_submit"; }
  GenOptions tune(GenOptions base) const override {
    // A quantified query's QE rewrite is computed once per session and
    // charged to the meter of whichever request computes it, so guard
    // usage of the others would depend on execution order.
    base.quantifiers = 0;
    return base;
  }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    std::vector<Request> requests;
    requests.push_back(volume_request(g, ctx, trial_seed));
    requests.back().strategy = VolumeStrategy::kAuto;
    for (std::uint64_t k = 0; k < 3; ++k) {
      requests.push_back(volume_request(g, ctx, trial_seed + k));
      requests.back().strategy = VolumeStrategy::kMonteCarlo;
    }
    guard::FaultInjector* injector = guard::current_fault_injector();
    const std::uint64_t fired_before =
        injector != nullptr ? injector->fired_total() : 0;

    std::vector<std::string> run_side;
    {
      ConstraintDatabase db;
      register_generator_vars(&db.vars(), g.dimension);
      Session session(&db, SessionOptions{.threads = 2});
      for (const Request& r : requests) {
        run_side.push_back(describe(session.run(r)));
      }
    }
    std::vector<std::string> submit_side;
    {
      ConstraintDatabase db;
      register_generator_vars(&db.vars(), g.dimension);
      Session session(&db, SessionOptions{.threads = 2});
      session.scheduler().pause();
      std::vector<serve::Ticket> tickets;
      for (const Request& r : requests) tickets.push_back(session.submit(r));
      session.scheduler().resume();
      for (serve::Ticket& t : tickets) {
        Result<Answer> a = t.wait();
        VolumeAnswer* v = a.is_ok() ? &a.value().volume : nullptr;
        if (inject_fault && v != nullptr && !v->exact && v->estimate) {
          // One phantom hit in the first MC member's sample.
          *v->estimate += 1.0 / static_cast<double>(v->points_requested);
          inject_fault = false;
        }
        submit_side.push_back(describe(a));
      }
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (run_side[i] == submit_side[i]) continue;
      const std::string why = "request " + std::to_string(i) + " (seed " +
                              std::to_string(requests[i].seed) +
                              "): run " + run_side[i] + " / submit " +
                              submit_side[i];
      // Under injected faults each side draws its own, so a fault that
      // fired on one side's request explains a differing answer.
      if (injector != nullptr && injector->fired_total() != fired_before) {
        return TrialResult::skip("fault fired: " + why);
      }
      return TrialResult::fail(why);
    }
    return TrialResult::pass();
  }

 private:
  // Every answer field the two entry points must agree on.
  static std::string describe(const Result<Answer>& r) {
    if (!r.is_ok()) return r.status().to_string();
    const Answer& a = r.value();
    const VolumeAnswer& v = a.volume;
    std::ostringstream out;
    out.precision(17);
    out << "status=" << static_cast<int>(a.status)
        << " exact=" << (v.exact ? rat(*v.exact) : "-")
        << " estimate=" << v.estimate.value_or(-1.0)
        << " bars=[" << v.lower.value_or(-1.0) << ", "
        << v.upper.value_or(-1.0) << "] points=" << v.points_evaluated
        << "/" << v.points_requested << " " << a.guard.to_string();
    return out.str();
  }
};

// ---------------------------------------------------------------------
// Metamorphic oracles (exact rational laws; any violation is a bug)
// ---------------------------------------------------------------------

// Theorem 1's interval-translation gadget generalized: volume is
// translation invariant, vol(S + t) = vol(S).
class TranslationInvarianceOracle : public Oracle {
 public:
  const char* name() const override { return "translation_invariance"; }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    auto base = exact_volume(ctx, g);
    if (!base.is_ok()) return TrialResult::skip(base.status().to_string());

    Xoshiro rng(stream_seed(trial_seed, kTransformStream));
    std::map<std::size_t, Polynomial> shift;
    std::vector<Rational> offsets;
    for (std::size_t i = 0; i < g.dimension; ++i) {
      const Rational t = small_rational(&rng, -2, 2);
      offsets.push_back(t);
      shift.emplace(i, Polynomial::variable(i) -
                           Polynomial::constant(t));  // x in S+t iff x-t in S
    }
    FormulaPtr translated = substitute_vars(g.boxed, shift);
    auto moved = exact_volume_of(ctx, translated, g);
    if (!moved.is_ok()) {
      return TrialResult::fail("translated formula failed: " +
                               moved.status().to_string());
    }
    Rational moved_value = moved.value();
    if (inject_fault) moved_value += Rational(1, 7);
    if (moved_value != base.value()) {
      std::ostringstream why;
      why << "vol " << rat(base.value()) << " changed to "
          << rat(moved_value) << " under translation (";
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        why << (i ? ", " : "") << rat(offsets[i]);
      }
      why << ")";
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

// Theorem 3's additivity over disjoint semi-linear cells: splitting by
// any hyperplane preserves total volume (the shared boundary is a
// measure-zero slice).
class UnionAdditivityOracle : public Oracle {
 public:
  const char* name() const override { return "union_additivity"; }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    auto whole = exact_volume(ctx, g);
    if (!whole.is_ok()) return TrialResult::skip(whole.status().to_string());

    Xoshiro rng(stream_seed(trial_seed, kTransformStream));
    const Rational c(1 + static_cast<int>(rng.next() % 3), 4);
    const Polynomial split =
        Polynomial::variable(0) - Polynomial::constant(c);
    FormulaPtr left =
        Formula::f_and(g.boxed, Formula::atom(split, RelOp::kLe));
    FormulaPtr right =
        Formula::f_and(g.boxed, Formula::atom(split, RelOp::kGe));
    auto vol_left = exact_volume_of(ctx, left, g);
    auto vol_right = exact_volume_of(ctx, right, g);
    if (!vol_left.is_ok() || !vol_right.is_ok()) {
      return TrialResult::fail("split volume failed: " +
                               (vol_left.is_ok() ? vol_right.status()
                                                 : vol_left.status())
                                   .to_string());
    }
    Rational sum = vol_left.value() + vol_right.value();
    if (inject_fault) sum += vol_left.value() + Rational(1, 9);
    if (sum != whole.value()) {
      std::ostringstream why;
      why << "vol(A & v0<=" << rat(c) << ") + vol(A & v0>=" << rat(c)
          << ") = " << rat(sum) << " != vol(A) = " << rat(whole.value());
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

// Monotonicity: conjoining any constraint can only shrink the set.
class ConjunctionMonotonicityOracle : public Oracle {
 public:
  const char* name() const override { return "conjunction_monotonicity"; }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    auto whole = exact_volume(ctx, g);
    if (!whole.is_ok()) return TrialResult::skip(whole.status().to_string());

    Xoshiro rng(stream_seed(trial_seed, kTransformStream));
    Polynomial h = Polynomial::constant(small_rational(&rng, -2, 2));
    for (std::size_t i = 0; i < g.dimension; ++i) {
      h += Polynomial::variable(i) * small_rational(&rng, -3, 3);
    }
    FormulaPtr conjoined =
        Formula::f_and(g.boxed, Formula::atom(h, RelOp::kLe));
    auto smaller = exact_volume_of(ctx, conjoined, g);
    if (!smaller.is_ok()) {
      return TrialResult::fail("conjoined volume failed: " +
                               smaller.status().to_string());
    }
    Rational value = smaller.value();
    if (inject_fault) value += whole.value() + Rational(1);
    if (value > whole.value()) {
      std::ostringstream why;
      why << "vol(A & H) = " << rat(value) << " > vol(A) = "
          << rat(whole.value());
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

// Scaling law: vol(cA) = c^k vol(A). x in cA iff x/c in A.
class ScalingOracle : public Oracle {
 public:
  const char* name() const override { return "scaling"; }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t trial_seed,
                    bool inject_fault) const override {
    auto base = exact_volume(ctx, g);
    if (!base.is_ok()) return TrialResult::skip(base.status().to_string());

    Xoshiro rng(stream_seed(trial_seed, kTransformStream));
    const Rational scales[] = {Rational(2), Rational(1, 2), Rational(3, 2)};
    const Rational c = scales[rng.next() % 3];
    std::map<std::size_t, Polynomial> sub;
    for (std::size_t i = 0; i < g.dimension; ++i) {
      sub.emplace(i, Polynomial::variable(i) * (Rational(1) / c));
    }
    FormulaPtr scaled = substitute_vars(g.boxed, sub);
    auto vol_scaled = exact_volume_of(ctx, scaled, g);
    if (!vol_scaled.is_ok()) {
      return TrialResult::fail("scaled formula failed: " +
                               vol_scaled.status().to_string());
    }
    Rational expected = base.value();
    for (std::size_t i = 0; i < g.dimension; ++i) expected *= c;
    if (inject_fault) expected = expected * c + Rational(1, 97);
    if (vol_scaled.value() != expected) {
      std::ostringstream why;
      why << "vol(" << rat(c) << "A) = " << rat(vol_scaled.value())
          << " != " << rat(c) << "^" << g.dimension << " vol(A) = "
          << rat(expected);
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

// Complement within the box: vol(A) + vol(box \ A) = vol(box) = 1.
class ComplementOracle : public Oracle {
 public:
  const char* name() const override { return "complement_within_box"; }

  TrialResult check(const CheckContext& ctx, const GeneratedFormula& g,
                    std::uint64_t /*trial_seed*/,
                    bool inject_fault) const override {
    auto inside = exact_volume(ctx, g);
    if (!inside.is_ok()) {
      return TrialResult::skip(inside.status().to_string());
    }
    FormulaPtr complement =
        Formula::f_and(Formula::f_not(g.core), g.box);
    auto outside = exact_volume_of(ctx, complement, g);
    if (!outside.is_ok()) {
      return TrialResult::fail("complement volume failed: " +
                               outside.status().to_string());
    }
    Rational box_volume(1);
    if (inject_fault) box_volume = Rational(6, 5);
    if (inside.value() + outside.value() != box_volume) {
      std::ostringstream why;
      why << "vol(A) + vol(box & !A) = "
          << rat(inside.value() + outside.value()) << " != vol(box) = "
          << rat(box_volume);
      return TrialResult::fail(why.str());
    }
    return TrialResult::pass();
  }
};

}  // namespace

const std::vector<const Oracle*>& all_oracles() {
  static const ExactVsMcOracle exact_vs_mc;
  static const ExactVsHitAndRunOracle exact_vs_har;
  static const QeMembershipOracle qe_membership;
  static const SerialVsParallelOracle serial_vs_parallel;
  static const CacheHotVsColdOracle cache;
  static const RunVsSubmitOracle run_vs_submit;
  static const TranslationInvarianceOracle translation;
  static const UnionAdditivityOracle additivity;
  static const ConjunctionMonotonicityOracle monotonicity;
  static const ScalingOracle scaling;
  static const ComplementOracle complement;
  static const std::vector<const Oracle*> kAll = {
      &exact_vs_mc,   &exact_vs_har,  &qe_membership, &serial_vs_parallel,
      &cache,         &run_vs_submit, &translation,   &additivity,
      &monotonicity,  &scaling,       &complement,
  };
  return kAll;
}

const Oracle* find_oracle(const std::string& name) {
  for (const Oracle* oracle : all_oracles()) {
    if (name == oracle->name()) return oracle;
  }
  return nullptr;
}

}  // namespace cqa

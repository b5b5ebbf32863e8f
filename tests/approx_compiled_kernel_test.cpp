// Differential oracle for the compiled MC membership kernel: on
// identical point sets, CompiledMembership must produce hit counts
// EXACTLY equal to the eval_qf_double tree walk (mc_count_hits) -- the
// bitwise-identity contract that lets the runtime swap kernels without
// perturbing a single sample. Driven by FormulaGen across FO+LIN and
// FO+POLY, plus targeted cases for the corners: empty/always-true
// cells, parameters, params shared with element vars, the mixed
// linear/non-linear fallback, and cancellation.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cqa/aggregate/database.h"
#include "cqa/approx/compiled_membership.h"
#include "cqa/approx/monte_carlo.h"
#include "cqa/approx/random.h"
#include "cqa/check/generator.h"
#include "cqa/logic/parser.h"
#include "cqa/util/cancellation.h"

namespace cqa {
namespace {

// CompiledMembership is move-only; take it out of the Result explicitly.
CompiledMembership must_compile(const FormulaPtr& f,
                                std::vector<std::size_t> element_vars) {
  auto r = CompiledMembership::compile(f, std::move(element_vars));
  if (!r.is_ok()) {
    ADD_FAILURE() << "compile failed: " << r.status().to_string();
    return CompiledMembership();
  }
  return std::move(r).take();
}

std::vector<std::vector<double>> draw_points(std::uint64_t seed,
                                             std::size_t count,
                                             std::size_t dim) {
  WitnessOperator w(seed);
  return w.draw_sample(count, dim);
}

// Both kernels on the same points; returns the common hit count after
// asserting exact equality.
std::size_t assert_equal_counts(
    const FormulaPtr& f, const std::vector<std::size_t>& element_vars,
    const std::map<std::size_t, Rational>& params,
    const std::vector<std::vector<double>>& pts) {
  auto interp =
      mc_count_hits(f, element_vars, params, pts.data(), pts.size());
  EXPECT_TRUE(interp.is_ok()) << interp.status().to_string();
  auto compiled = CompiledMembership::compile(f, element_vars);
  EXPECT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  auto binding = compiled.value().bind(params);
  EXPECT_TRUE(binding.is_ok()) << binding.status().to_string();
  auto hits = compiled.value().count_hits(binding.value(), pts.data(),
                                          pts.size());
  EXPECT_TRUE(hits.is_ok()) << hits.status().to_string();
  EXPECT_EQ(interp.value(), hits.value());
  return hits.value();
}

// --- Generator-driven differential sweep (>= 500 seeded trials) -------

void sweep(bool linear_only, std::uint64_t seed_base, std::size_t trials) {
  std::size_t fallback_formulas = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    GenOptions opt;
    opt.dimension = 1 + t % 3;
    opt.max_depth = 2 + t % 3;
    opt.max_atoms = 3 + t % 5;
    opt.linear_only = linear_only;
    opt.allow_eq_atoms = (t % 4) == 0;  // include measure-zero slices
    FormulaGen gen(opt);
    GeneratedFormula g = gen.generate(seed_base + t);
    const std::vector<std::size_t> element_vars = [&] {
      std::vector<std::size_t> ev;
      for (std::size_t i = 0; i < g.dimension; ++i) ev.push_back(i);
      return ev;
    }();
    auto pts = draw_points(seed_base * 31 + t, 64 + (t % 3) * 37,
                           g.dimension);
    assert_equal_counts(g.boxed, element_vars, {}, pts);
    assert_equal_counts(g.core, element_vars, {}, pts);

    auto compiled = CompiledMembership::compile(g.core, element_vars);
    ASSERT_TRUE(compiled.is_ok());
    if (compiled.value().fallback_atom_count() > 0) ++fallback_formulas;
    if (linear_only) {
      EXPECT_EQ(compiled.value().fallback_atom_count(), 0u)
          << "FO+LIN formula lowered atoms to the interpreter fallback: "
          << g.text();
    }
  }
  if (!linear_only) {
    // The FO+POLY sweep must actually exercise the fallback path.
    EXPECT_GT(fallback_formulas, trials / 4);
  }
}

TEST(CompiledKernelDifferential, LinearSweep) { sweep(true, 1000, 300); }

TEST(CompiledKernelDifferential, PolySweep) { sweep(false, 9000, 300); }

// --- Corner cells -----------------------------------------------------

TEST(CompiledKernel, AlwaysTrueAndEmptyCells) {
  auto pts = draw_points(7, 130, 2);
  EXPECT_EQ(assert_equal_counts(Formula::make_true(), {0, 1}, {}, pts),
            pts.size());
  EXPECT_EQ(assert_equal_counts(Formula::make_false(), {0, 1}, {}, pts),
            0u);
  // An unsatisfiable conjunction that does not constant-fold.
  VarTable vars;
  auto contradiction =
      parse_formula("x <= 1/4 & x >= 3/4", &vars).value_or_die();
  EXPECT_EQ(assert_equal_counts(contradiction, {0}, {}, pts), 0u);
}

TEST(CompiledKernel, ZeroPointsAndZeroDimension) {
  VarTable vars;
  auto f = parse_formula("x <= 1/2", &vars).value_or_die();
  std::vector<std::vector<double>> none;
  auto compiled = must_compile(f, {0});
  auto b = compiled.bind({}).value_or_die();
  EXPECT_EQ(compiled.count_hits(b, none.data(), 0).value_or_die(), 0u);
  // No element variables at all: the formula is decided by params only.
  auto g = must_compile(f, {});
  auto pts1 = draw_points(3, 90, 0);
  auto bt = g.bind({{0, Rational(1, 4)}}).value_or_die();
  EXPECT_EQ(g.count_hits(bt, pts1.data(), pts1.size()).value_or_die(),
            pts1.size());
  auto bf = g.bind({{0, Rational(3, 4)}}).value_or_die();
  EXPECT_EQ(g.count_hits(bf, pts1.data(), pts1.size()).value_or_die(), 0u);
}

TEST(CompiledKernel, ParametersMatchInterpreter) {
  VarTable vars;
  auto f = parse_formula("x + 2*a <= 1 & y - a^2 >= 0", &vars)
               .value_or_die();
  const std::size_t x = static_cast<std::size_t>(vars.find("x"));
  const std::size_t y = static_cast<std::size_t>(vars.find("y"));
  const std::size_t a = static_cast<std::size_t>(vars.find("a"));
  auto pts = draw_points(11, 256, 2);
  for (int num = -3; num <= 3; ++num) {
    std::map<std::size_t, Rational> params{{a, Rational(num, 7)}};
    assert_equal_counts(f, {x, y}, params, pts);
  }
  // Unbound parameter: both paths treat a as 0.0.
  assert_equal_counts(f, {x, y}, {}, pts);
}

TEST(CompiledKernel, ParamSharedWithElementVarIsInert) {
  // A parameter on an element variable loses to the per-point
  // coordinate in both kernels: the counts with and without the shared
  // binding are identical.
  VarTable vars;
  auto f = parse_formula("x + y <= 1", &vars).value_or_die();
  auto pts = draw_points(13, 200, 2);
  const std::size_t with_shared =
      assert_equal_counts(f, {0, 1}, {{0, Rational(5)}}, pts);
  const std::size_t without = assert_equal_counts(f, {0, 1}, {}, pts);
  EXPECT_EQ(with_shared, without);
}

TEST(CompiledKernel, OutOfRangeParamIsInvalidArgument) {
  VarTable vars;
  auto f = parse_formula("x <= 1/2", &vars).value_or_die();
  auto pts = draw_points(17, 10, 1);
  const std::map<std::size_t, Rational> params{{9, Rational(1)}};
  auto interp = mc_count_hits(f, {0}, params, pts.data(), pts.size());
  ASSERT_FALSE(interp.is_ok());
  EXPECT_EQ(interp.status().code(), StatusCode::kInvalidArgument);
  auto compiled = must_compile(f, {0});
  auto binding = compiled.bind(params);
  ASSERT_FALSE(binding.is_ok());
  EXPECT_EQ(binding.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompiledKernel, MixedLinearAndFallbackAtoms) {
  VarTable vars;
  auto f = parse_formula(
               "(x + y <= 1 | x^2 + y^2 <= 1/2) & !(x*y >= 1/3)", &vars)
               .value_or_die();
  auto compiled = must_compile(f, {0, 1});
  EXPECT_GT(compiled.linear_atom_count(), 0u);
  EXPECT_GT(compiled.fallback_atom_count(), 0u);
  auto pts = draw_points(19, 333, 2);
  assert_equal_counts(f, {0, 1}, {}, pts);
}

TEST(CompiledKernel, QuantifiedFormulaRejectedLikeInterpreter) {
  VarTable vars;
  auto f =
      parse_formula("E q . x <= q & q <= 1/2", &vars).value_or_die();
  auto compiled = CompiledMembership::compile(f, {0});
  ASSERT_FALSE(compiled.is_ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kUnsupported);
  auto pts = draw_points(23, 4, 1);
  auto interp = mc_count_hits(f, {0}, {}, pts.data(), pts.size());
  ASSERT_FALSE(interp.is_ok());
  EXPECT_EQ(interp.status().code(), compiled.status().code());
}

// --- Streaming entry point -------------------------------------------

TEST(CompiledKernel, StreamMatchesMaterializedDraws) {
  // count_hits_stream must consume the PRNG in exactly Xoshiro::point
  // order: counting over streamed draws equals counting over the same
  // seed's materialized sample.
  VarTable vars;
  auto f =
      parse_formula("x^2 + y^2 <= 1 & x + y >= 1/4", &vars).value_or_die();
  auto compiled = must_compile(f, {0, 1});
  auto b = compiled.bind({}).value_or_die();
  for (std::uint64_t seed : {1u, 77u, 4096u}) {
    for (std::size_t count : {0u, 1u, 63u, 64u, 65u, 1000u}) {
      auto pts = draw_points(seed, count, 2);
      Xoshiro rng(seed);
      auto stream = compiled.count_hits_stream(b, &rng, count);
      auto aos = compiled.count_hits(b, pts.data(), count);
      ASSERT_TRUE(stream.is_ok() && aos.is_ok());
      EXPECT_EQ(stream.value(), aos.value())
          << "seed=" << seed << " count=" << count;
    }
  }
}

// --- Cancellation -----------------------------------------------------

TEST(CompiledKernel, CancelledTokenStopsAtFirstPoll) {
  VarTable vars;
  auto f = parse_formula("x <= 1/2", &vars).value_or_die();
  auto compiled = must_compile(f, {0});
  auto b = compiled.bind({}).value_or_die();
  auto pts = draw_points(29, 1000, 1);
  CancelToken token;
  token.cancel();
  auto r = compiled.count_hits(b, pts.data(), pts.size(), &token);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Same outcome as the interpreter kernel on the same token.
  auto interp = mc_count_hits(f, {0}, {}, pts.data(), pts.size(), &token);
  ASSERT_FALSE(interp.is_ok());
  EXPECT_EQ(interp.status().code(), StatusCode::kCancelled);
}

TEST(CompiledKernel, UnexpiredTokenCompletes) {
  VarTable vars;
  auto f = parse_formula("x <= 1/2", &vars).value_or_die();
  auto compiled = must_compile(f, {0});
  auto b = compiled.bind({}).value_or_die();
  auto pts = draw_points(31, 3 * kCancelPollStride + 17, 1);
  CancelToken token;
  token.set_deadline_after_ms(60000);
  auto r = compiled.count_hits(b, pts.data(), pts.size(), &token);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(),
            mc_count_hits(f, {0}, {}, pts.data(), pts.size()).value());
}

// --- Binding reuse and chunk splits --------------------------------

TEST(CompiledMembership, CountHitsMatchesInterpreterOnSharedSample) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= a", &vars).value_or_die();
  const std::size_t a = static_cast<std::size_t>(vars.find("a"));
  const std::size_t sample_size = 5000;
  auto sample = draw_points(/*seed=*/99, sample_size, 2);
  CompiledMembership compiled = must_compile(phi, {0, 1});
  for (int num = 1; num <= 5; num += 2) {
    const std::map<std::size_t, Rational> params{{a, Rational(num, 5)}};
    // One binding, counted twice: a Binding is reusable across calls.
    auto b = compiled.bind(params).value_or_die();
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto hits = compiled.count_hits(b, sample.data(), sample_size);
      auto ref = mc_count_hits(phi, {0, 1}, params, sample.data(),
                               sample_size);
      ASSERT_TRUE(hits.is_ok() && ref.is_ok());
      EXPECT_EQ(hits.value(), ref.value()) << "a=" << num << "/5";
    }
  }
  // Chunk splits still sum to the whole.
  auto b = compiled.bind({{a, Rational(1, 2)}}).value_or_die();
  auto whole = compiled.count_hits(b, sample.data(), sample_size)
                   .value_or_die();
  std::size_t split = 0;
  for (std::size_t lo = 0; lo < sample_size; lo += 777) {
    const std::size_t hi = std::min(sample_size, lo + 777);
    split += compiled.count_hits(b, sample.data() + lo, hi - lo)
                 .value_or_die();
  }
  EXPECT_EQ(whole, split);
  // An empty range counts nothing.
  EXPECT_EQ(compiled.count_hits(b, sample.data() + 123, 0).value_or_die(),
            0u);
}

}  // namespace
}  // namespace cqa

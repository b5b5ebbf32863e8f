// Strategy-selection tests for cqa::plan: the planner is a pure function
// from (FormulaStats, Budget) to a decision, so every regime of the cost
// model is checkable without running an engine.

#include "cqa/plan/planner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cqa/logic/parser.h"
#include "cqa/vc/sample_bounds.h"

namespace cqa {
namespace {

FormulaStats linear_stats(std::size_t cells) {
  FormulaStats s;
  s.dimension = 2;
  s.atoms = 4;
  s.quantifiers = 0;
  s.linear = true;
  s.quantifier_free = true;
  s.cell_estimate = cells;
  s.vc_dim = 4.0;
  return s;
}

FormulaStats nonlinear_stats() {
  FormulaStats s;
  s.dimension = 2;
  s.atoms = 2;
  s.quantifiers = 0;
  s.linear = false;
  s.quantifier_free = true;
  s.cell_estimate = 1;
  s.vc_dim = 4.0;
  return s;
}

TEST(PlannerTest, SmallLinearQueryPicksExact) {
  Budget b;
  b.epsilon = 0.01;
  b.delta = 0.05;
  PlanDecision d = plan_volume(linear_stats(/*cells=*/2), b);
  EXPECT_EQ(d.chosen, VolumeStrategy::kAuto);
  EXPECT_EQ(d.expected_epsilon, 0.0);
  EXPECT_FALSE(d.degrade_preplanned);
}

TEST(PlannerTest, HugeCellCountTipsToMonteCarlo) {
  // Exact cost grows ~cells^2; MC cost is flat in the cell count. A
  // large enough decomposition makes sampling the cheaper certified
  // route even with no deadline.
  Budget b;
  b.epsilon = 0.05;
  b.delta = 0.05;
  PlanDecision d = plan_volume(linear_stats(/*cells=*/100000), b);
  EXPECT_EQ(d.chosen, VolumeStrategy::kMonteCarlo);
  EXPECT_GT(d.mc_samples, 0u);
  EXPECT_LE(d.expected_epsilon, b.epsilon);
}

TEST(PlannerTest, NonlinearQueryCannotRunExact) {
  Budget b;
  b.epsilon = 0.05;
  b.delta = 0.05;
  PlanDecision d = plan_volume(nonlinear_stats(), b);
  EXPECT_EQ(d.chosen, VolumeStrategy::kMonteCarlo);
  // The exact candidate must be recorded as infeasible, not just lose
  // on price.
  bool saw_exact = false;
  for (const PlannedStrategy& c : d.considered) {
    if (c.strategy == VolumeStrategy::kAuto) {
      saw_exact = true;
      EXPECT_FALSE(c.feasible);
    }
  }
  EXPECT_TRUE(saw_exact);
}

TEST(PlannerTest, TightDeadlineShrinksSample) {
  Budget b;
  b.epsilon = 0.001;  // Blumer bound in the hundreds of thousands
  b.delta = 0.05;
  b.deadline_ms = 2;
  PlanDecision d = plan_volume(nonlinear_stats(), b);
  EXPECT_EQ(d.chosen, VolumeStrategy::kMonteCarlo);
  Budget no_deadline = b;
  no_deadline.deadline_ms = -1;
  PlanDecision full = plan_volume(nonlinear_stats(), no_deadline);
  EXPECT_LT(d.mc_samples, full.mc_samples);
  // The reduced sample cannot certify eps=0.001: degradation is
  // pre-planned and the Hoeffding width replaces epsilon.
  EXPECT_TRUE(d.degrade_preplanned);
  EXPECT_GT(d.expected_epsilon, b.epsilon);
  EXPECT_NEAR(d.expected_epsilon,
              hoeffding_epsilon(b.delta, d.mc_samples), 1e-12);
}

TEST(PlannerTest, ImpossibleDeadlineFallsToTrivialHalf) {
  FormulaStats s = nonlinear_stats();
  Budget b;
  b.epsilon = 0.01;
  b.delta = 0.05;
  b.deadline_ms = 0;  // nothing can run
  PlanDecision d = plan_volume(s, b);
  EXPECT_EQ(d.chosen, VolumeStrategy::kTrivialHalf);
  EXPECT_EQ(d.expected_epsilon, 0.5);
  EXPECT_TRUE(d.degrade_preplanned);
}

TEST(PlannerTest, NoFeasibleStrategyWithoutDeadlineFallsToTrivialHalf) {
  // Quantified nonlinear: no exact decomposition, no membership test,
  // no convex cell. Even with no deadline the only answer is the last
  // rung, pre-marked degraded for a tight epsilon.
  FormulaStats s = nonlinear_stats();
  s.quantifier_free = false;
  s.quantifiers = 1;
  Budget b;
  b.epsilon = 0.01;
  b.delta = 0.05;  // deadline_ms stays -1: none
  PlanDecision d = plan_volume(s, b);
  EXPECT_EQ(d.chosen, VolumeStrategy::kTrivialHalf);
  EXPECT_EQ(d.expected_epsilon, 0.5);
  EXPECT_TRUE(d.degrade_preplanned);
}

TEST(PlannerTest, LooseBudgetAcceptsTrivialHalf) {
  // With eps >= 1/2 Proposition 4 already meets the accuracy bar at
  // zero cost, even for a query nothing else could handle in time.
  FormulaStats s = nonlinear_stats();
  Budget b;
  b.epsilon = 0.5;
  b.delta = 0.05;
  b.deadline_ms = 0;
  PlanDecision d = plan_volume(s, b);
  EXPECT_EQ(d.chosen, VolumeStrategy::kTrivialHalf);
  EXPECT_FALSE(d.degrade_preplanned);
}

TEST(PlannerTest, ConsidersOnlyTheLadderRungs) {
  // The planner prices exactly the paper's ladder -- exact, Theorem-4
  // MC, trivial 1/2 -- even on a single convex cell under a loose
  // budget, where hit-and-run was once a candidate.
  Budget b;
  b.epsilon = 0.2;
  b.delta = 0.05;
  for (std::size_t cells : {1, 3}) {
    PlanDecision d = plan_volume(linear_stats(cells), b);
    ASSERT_EQ(d.considered.size(), 3u);
    EXPECT_EQ(d.considered[0].strategy, VolumeStrategy::kAuto);
    EXPECT_EQ(d.considered[1].strategy, VolumeStrategy::kMonteCarlo);
    EXPECT_EQ(d.considered[2].strategy, VolumeStrategy::kTrivialHalf);
  }
}

TEST(PlannerTest, DnfSizeEstimate) {
  VarTable vars;
  auto f = parse_formula("(x <= 1 | x >= 2) & (y <= 1 | y >= 2)", &vars);
  ASSERT_TRUE(f.is_ok());
  EXPECT_EQ(dnf_size_estimate(f.value()), 4u);
  auto g = parse_formula("x <= 1 & y <= 1", &vars);
  ASSERT_TRUE(g.is_ok());
  EXPECT_EQ(dnf_size_estimate(g.value()), 1u);
  // Negation mirrors And<->Or: !(a & b) is a 2-cell disjunction.
  auto h = parse_formula("!(x <= 1 & y <= 1)", &vars);
  ASSERT_TRUE(h.is_ok());
  EXPECT_EQ(dnf_size_estimate(h.value()), 2u);
}

TEST(PlannerTest, ExtractStatsReadsStructure) {
  VarTable vars;
  auto f = parse_formula("x^2 + y^2 <= 1 & x >= 0", &vars);
  ASSERT_TRUE(f.is_ok());
  FormulaStats s = extract_stats(f.value(), /*dimension=*/2,
                                 /*quantifiers=*/0);
  EXPECT_EQ(s.dimension, 2u);
  EXPECT_EQ(s.atoms, 2u);
  EXPECT_FALSE(s.linear);
  EXPECT_TRUE(s.quantifier_free);
  EXPECT_GE(s.vc_dim, 1.0);
  EXPECT_LE(s.vc_dim, 12.0);
}

TEST(PlannerTest, HoeffdingEpsilonShrinksWithSamples) {
  EXPECT_EQ(hoeffding_epsilon(0.05, 0), 0.5);
  const double e1 = hoeffding_epsilon(0.05, 1000);
  const double e2 = hoeffding_epsilon(0.05, 100000);
  EXPECT_GT(e1, e2);
  EXPECT_LT(e2, 0.01);
  EXPECT_NEAR(hoeffding_epsilon(0.05, 4000) * 2.0,
              hoeffding_epsilon(0.05, 1000), 1e-12);
}

TEST(PlannerTest, HoeffdingHonoursTinyDelta) {
  // Every delta in (0, 1) gets its own width; none is clamped to a
  // looser confidence.
  for (const double delta : {1e-15, 1e-300, 0.999}) {
    const double expected = std::sqrt(std::log(2.0 / delta) / (2.0 * 10000));
    EXPECT_NEAR(hoeffding_epsilon(delta, 10000), expected, 1e-12) << delta;
  }
  EXPECT_NEAR(hoeffding_epsilon(1e-15, 10000), 0.0420, 5e-5);
}

TEST(PlannerTest, McSampleSizeIsTheBlumerBoundWithTypedFailures) {
  Budget b;
  b.epsilon = 0.05;
  b.delta = 0.05;
  EXPECT_EQ(mc_sample_size(b, std::nullopt).value(),
            blumer_sample_bound(0.05, 0.05, kDefaultVcDim));
  EXPECT_EQ(mc_sample_size(b, 3.0).value(),
            blumer_sample_bound(0.05, 0.05, 3.0));
  EXPECT_EQ(mc_sample_size(b, 3.0, 100).value(), 100u);
  EXPECT_EQ(mc_sample_size(b, 3.0, 1u << 30).value(),
            blumer_sample_bound(0.05, 0.05, 3.0));

  // Too large for std::size_t: a typed status, never a wrapped M.
  EXPECT_EQ(mc_sample_size(b, 1e300).status().code(),
            StatusCode::kResourceExhausted);
  Budget tiny = b;
  tiny.epsilon = 1e-300;
  EXPECT_EQ(mc_sample_size(tiny, std::nullopt).status().code(),
            StatusCode::kResourceExhausted);

  // Outside the bound's domain.
  EXPECT_EQ(mc_sample_size(b, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  Budget wide = b;
  wide.epsilon = 1.0;
  EXPECT_EQ(mc_sample_size(wide, std::nullopt).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlannerTest, UnrepresentableSampleSizeMakesMonteCarloInfeasible) {
  FormulaStats s = nonlinear_stats();
  s.vc_dim = 1e300;
  Budget b;
  PlanDecision d = plan_volume(s, b);
  EXPECT_EQ(d.chosen, VolumeStrategy::kTrivialHalf);
  EXPECT_EQ(d.mc_samples, 0u);
  EXPECT_FALSE(d.considered[1].feasible);
  EXPECT_NE(d.rationale.find("does not fit"), std::string::npos)
      << d.rationale;
}

TEST(PlannerTest, PlanToStringMentionsEveryCandidate) {
  Budget b;
  PlanDecision d = plan_volume(linear_stats(2), b);
  const std::string s = plan_to_string(d);
  EXPECT_NE(s.find("exact"), std::string::npos);
  EXPECT_NE(s.find("mc"), std::string::npos);
  EXPECT_EQ(s.find("hit_and_run"), std::string::npos);
  EXPECT_NE(s.find("trivial_half"), std::string::npos);
}

}  // namespace
}  // namespace cqa

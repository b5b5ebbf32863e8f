#include "cqa/plan/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "cqa/vc/sample_bounds.h"

namespace cqa {

namespace {

// Saturating helpers so pathological formulas cannot overflow the
// estimates.
std::size_t sat_add(std::size_t a, std::size_t b, std::size_t cap) {
  return (a > cap - b) ? cap : a + b;
}

std::size_t sat_mul(std::size_t a, std::size_t b, std::size_t cap) {
  if (a == 0 || b == 0) return 0;
  if (a > cap / b) return cap;
  return a * b;
}

std::size_t dnf_rec(const FormulaPtr& f, std::size_t cap) {
  switch (f->kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
    case Formula::Kind::kAtom:
    case Formula::Kind::kPredicate:
      return 1;
    case Formula::Kind::kNot:
      // NNF pushes the negation to the atoms; a negated conjunction
      // becomes a disjunction, so mirror And<->Or through the Not.
      switch (f->children()[0]->kind()) {
        case Formula::Kind::kAnd: {
          std::size_t total = 0;
          for (const auto& c : f->children()[0]->children()) {
            total = sat_add(total, dnf_rec(Formula::f_not(c), cap), cap);
          }
          return std::max<std::size_t>(1, total);
        }
        case Formula::Kind::kOr: {
          std::size_t total = 1;
          for (const auto& c : f->children()[0]->children()) {
            total = sat_mul(total, dnf_rec(Formula::f_not(c), cap), cap);
          }
          return total;
        }
        default:
          return dnf_rec(f->children()[0], cap);
      }
    case Formula::Kind::kAnd: {
      std::size_t total = 1;
      for (const auto& c : f->children()) {
        total = sat_mul(total, dnf_rec(c, cap), cap);
      }
      return total;
    }
    case Formula::Kind::kOr: {
      std::size_t total = 0;
      for (const auto& c : f->children()) {
        total = sat_add(total, dnf_rec(c, cap), cap);
      }
      return std::max<std::size_t>(1, total);
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall:
      return dnf_rec(f->children()[0], cap);
  }
  return 1;
}

}  // namespace

std::size_t dnf_size_estimate(const FormulaPtr& f, std::size_t cap) {
  if (f == nullptr) return 1;
  return std::max<std::size_t>(1, dnf_rec(f, cap));
}

FormulaStats extract_stats(const FormulaPtr& analysis,
                           std::size_t dimension, std::size_t quantifiers,
                           const CostModel& model) {
  FormulaStats s;
  s.dimension = dimension;
  s.quantifiers = quantifiers;
  if (analysis == nullptr) return s;
  s.atoms = analysis->count_atoms();
  s.linear = analysis->is_linear();
  s.quantifier_free = analysis->is_quantifier_free();
  s.cell_estimate = dnf_size_estimate(analysis);
  // Proposition 6's route: the Goldberg-Jerrum constant for the query,
  // capped so the Blumer bound stays in serving range. (The raw C is a
  // worst-case learning-theory constant in the hundreds; the cap is the
  // pragmatic knob, and the bench validates the resulting sample sizes.)
  const double c = goldberg_jerrum_constant(
      std::max<std::size_t>(1, dimension), /*p=*/2,
      /*q=*/quantifiers, /*degree=*/s.linear ? 1 : 2,
      std::max<std::size_t>(1, s.atoms));
  const double pragmatic =
      static_cast<double>(dimension) + 1.0 +
      std::log2(static_cast<double>(s.atoms) + 1.0);
  s.vc_dim = std::min({c, pragmatic, model.vc_dim_cap});
  s.vc_dim = std::max(s.vc_dim, 1.0);
  return s;
}

Result<std::size_t> mc_sample_size(const Budget& budget,
                                   std::optional<double> vc_dim,
                                   std::size_t cap) {
  const double d = vc_dim.value_or(kDefaultVcDim);
  if (!(budget.epsilon > 0.0 && budget.epsilon < 1.0) ||
      !(budget.delta > 0.0 && budget.delta < 1.0) ||
      !(std::isfinite(d) && d >= 0.0)) {
    return Status::invalid(
        "Monte-Carlo sizing needs epsilon and delta in (0, 1) and a "
        "finite, non-negative VC dimension");
  }
  const std::size_t m = blumer_sample_bound(budget.epsilon, budget.delta, d);
  if (m == std::numeric_limits<std::size_t>::max()) {
    return Status::resource_exhausted(
        "Monte-Carlo sample size M does not fit std::size_t");
  }
  return cap > 0 ? std::min(m, cap) : m;
}

double hoeffding_epsilon(double delta, std::size_t n) {
  if (n == 0) return 0.5;
  const double e =
      std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(n)));
  return std::min(e, 0.5);
}

const char* strategy_name(VolumeStrategy s) {
  switch (s) {
    case VolumeStrategy::kAuto: return "exact";
    case VolumeStrategy::kInclusionExclusion: return "inclusion_exclusion";
    case VolumeStrategy::kMonteCarlo: return "mc";
    case VolumeStrategy::kTrivialHalf: return "trivial_half";
  }
  return "unknown";
}

namespace {

double exact_cost_ns(const FormulaStats& s, const CostModel& m) {
  const double cells = static_cast<double>(s.cell_estimate);
  const double dim = static_cast<double>(std::max<std::size_t>(1, s.dimension));
  // The sweep recurses per section and enumerates arrangement vertices:
  // superlinear in the cell count, exponential-ish in dimension. cells^2
  // * dim gets the ordering right across the bench workload.
  return m.decompose_cell_ns * cells + m.exact_cell_ns * cells * cells * dim;
}

double mc_cost_ns(const FormulaStats& s, const CostModel& m,
                  std::size_t samples) {
  return m.mc_point_ns * static_cast<double>(samples) *
         static_cast<double>(s.atoms + 1);
}

std::string ns_note(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "~%.2f ms", ns / 1e6);
  return buf;
}

}  // namespace

PlanDecision plan_volume(const FormulaStats& stats, const Budget& budget,
                         const CostModel& model) {
  PlanDecision d;
  d.stats = stats;
  d.budget = budget;

  const double deadline_ns =
      budget.has_deadline()
          ? static_cast<double>(budget.deadline_ms) * 1e6 *
                model.deadline_safety
          : std::numeric_limits<double>::infinity();

  const Result<std::size_t> sized = mc_sample_size(budget, stats.vc_dim);
  const std::size_t blumer = sized.is_ok() ? sized.value() : 0;

  // --- Price every candidate -----------------------------------------
  PlannedStrategy exact;
  exact.strategy = VolumeStrategy::kAuto;
  exact.feasible = stats.linear;
  exact.err = 0.0;
  exact.meets_accuracy = exact.feasible;
  exact.predicted_ns = exact_cost_ns(stats, model);
  exact.note = exact.feasible ? ns_note(exact.predicted_ns)
                              : "nonlinear: no exact cell decomposition";

  PlannedStrategy mc;
  mc.strategy = VolumeStrategy::kMonteCarlo;
  mc.feasible = stats.quantifier_free && sized.is_ok();
  mc.err = budget.epsilon;
  mc.meets_accuracy = mc.feasible;
  mc.predicted_ns = mc_cost_ns(stats, model, blumer);
  if (!stats.quantifier_free) {
    mc.note = "quantified after inlining: no membership test";
  } else if (!sized.is_ok()) {
    mc.note = sized.status().message();
  } else {
    mc.note = "M=" + std::to_string(blumer) + " " + ns_note(mc.predicted_ns);
  }

  PlannedStrategy trivial;
  trivial.strategy = VolumeStrategy::kTrivialHalf;
  trivial.feasible = true;  // the constant answer needs no decomposition
  trivial.err = 0.5;
  trivial.meets_accuracy = budget.epsilon >= 0.5;
  trivial.predicted_ns = 0.0;
  trivial.note = "constant 1/2, bars [0,1]";

  d.considered = {exact, mc, trivial};

  // --- Pick the cheapest candidate that honors the budget -------------
  const PlannedStrategy* best = nullptr;
  for (const PlannedStrategy& c : d.considered) {
    if (!c.feasible || !c.meets_accuracy) continue;
    if (c.predicted_ns > deadline_ns) continue;
    if (best == nullptr || c.predicted_ns < best->predicted_ns) best = &c;
  }
  if (best != nullptr) {
    d.chosen = best->strategy;
    d.expected_epsilon = best->err;
    if (best->strategy == VolumeStrategy::kMonteCarlo) {
      d.mc_samples = blumer;
    }
    d.rationale = std::string("cheapest within budget: ") +
                  strategy_name(d.chosen) + " (" + best->note + ")";
    return d;
  }

  // --- Degradation ladder ---------------------------------------------
  // Nothing meets (epsilon, deadline). Shrink Monte-Carlo to the sample
  // size the deadline affords; its Hoeffding error replaces epsilon.
  if (mc.feasible && budget.has_deadline()) {
    const double per_point_ns =
        model.mc_point_ns * static_cast<double>(stats.atoms + 1);
    const std::size_t affordable = static_cast<std::size_t>(
        std::max(0.0, deadline_ns / std::max(per_point_ns, 1.0)));
    const std::size_t m = std::min(blumer, affordable);
    if (m >= model.min_mc_samples) {
      d.chosen = VolumeStrategy::kMonteCarlo;
      d.mc_samples = m;
      d.expected_epsilon = hoeffding_epsilon(budget.delta, m);
      d.degrade_preplanned = d.expected_epsilon > budget.epsilon;
      d.rationale = "deadline-reduced MC: M=" + std::to_string(m) +
                    " (Blumer wanted " + std::to_string(blumer) + ")";
      return d;
    }
  }
  // (With no deadline a feasible MC always wins the main loop -- it
  // meets epsilon by construction and deadline_ns is infinite -- so the
  // only way to reach here deadline-free is with MC infeasible too.)

  // Last rung: Proposition 4's trivial half-approximation.
  d.chosen = VolumeStrategy::kTrivialHalf;
  d.expected_epsilon = 0.5;
  d.degrade_preplanned = budget.epsilon < 0.5;
  d.rationale = budget.has_deadline()
                    ? "deadline too tight for any sampling: trivial 1/2"
                    : "no feasible strategy for this query: trivial 1/2";
  if (!mc.feasible) d.rationale += " (mc: " + mc.note + ")";
  return d;
}

std::string plan_to_string(const PlanDecision& d) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "plan: dim=%zu atoms=%zu cells~%zu vc=%.1f linear=%d "
                "qf=%d eps=%.3g delta=%.3g deadline_ms=%lld\n",
                d.stats.dimension, d.stats.atoms, d.stats.cell_estimate,
                d.stats.vc_dim, d.stats.linear ? 1 : 0,
                d.stats.quantifier_free ? 1 : 0, d.budget.epsilon,
                d.budget.delta,
                static_cast<long long>(d.budget.deadline_ms));
  out += line;
  for (const PlannedStrategy& c : d.considered) {
    std::snprintf(line, sizeof(line),
                  "  %-22s feasible=%d meets_eps=%d cost=%.3fms err=%.3g"
                  "  %s\n",
                  strategy_name(c.strategy), c.feasible ? 1 : 0,
                  c.meets_accuracy ? 1 : 0, c.predicted_ns / 1e6, c.err,
                  c.note.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  -> %s (expected_eps=%.3g%s)  %s\n",
                strategy_name(d.chosen), d.expected_epsilon,
                d.degrade_preplanned ? ", DEGRADED" : "",
                d.rationale.c_str());
  out += line;
  return out;
}

}  // namespace cqa

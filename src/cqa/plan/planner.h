// Cost-based adaptive volume planner: pick the paper's strategy per
// query under an accuracy/latency budget.
//
// The paper exposes three regimes with wildly different cost/accuracy
// profiles: exact FO+POLY+SUM volume for semi-linear sets (Theorem 3),
// (eps, delta) Monte-Carlo with VC-dimension sample bounds (Theorem 4),
// and the trivial half-approximation (Proposition 4). Those three rungs
// are exactly what the planner prices; the paper's other baselines
// (hit-and-run, Lowner-John bounds, variable independence) are reached
// only by calling their free functions directly. The planner extracts
// cheap structural statistics from the query (dimension, atom count, a
// DNF cell-count estimate, a capped Goldberg-Jerrum VC bound), prices
// each strategy with a calibrated cost model, and selects the cheapest
// one whose guaranteed error fits Budget.epsilon and whose predicted
// wall-clock fits Budget.deadline_ms.
//
// When nothing fits the deadline the plan degrades instead of failing:
// Monte-Carlo shrinks its sample to what the deadline affords (error
// bars widen by the Hoeffding bound, the answer is marked Degraded),
// and the last rung is Proposition 4's constant 1/2 with bars [0, 1].
// The planner is pure (stats in, decision out), so strategy selection
// is unit-testable without running any engine.

#ifndef CQA_PLAN_PLANNER_H_
#define CQA_PLAN_PLANNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cqa/core/volume_engine.h"
#include "cqa/guard/meter.h"
#include "cqa/logic/formula.h"

namespace cqa {

/// Per-request accuracy/latency budget.
struct Budget {
  double epsilon = 0.05;        // target absolute volume error
  double delta = 0.05;          // failure probability (MC strategies)
  std::int64_t deadline_ms = -1;  // wall-clock cap; < 0 = none
  /// Resource ceilings for the exact pipeline (QE atoms, FM rows, sweep
  /// sections, BigInt bits, resident bytes). Defaults are safe service
  /// limits; guard::ResourceQuota::unlimited() turns metering into pure
  /// accounting. A tripped quota is treated like deadline expiry: the
  /// answer degrades down the ladder instead of erroring.
  guard::ResourceQuota quota;

  bool has_deadline() const { return deadline_ms >= 0; }
};

/// The VC dimension a Monte-Carlo sample is sized with when neither the
/// caller nor the planner supplies one.
inline constexpr double kDefaultVcDim = 4.0;

/// Structural statistics of one query, extracted before any engine runs.
struct FormulaStats {
  std::size_t dimension = 0;      // |output_vars|
  std::size_t atoms = 0;          // atomic subformulas after rewrite/inline
  std::size_t quantifiers = 0;    // in the parsed query (pre-QE)
  bool linear = false;            // FO+LIN after inlining (exact eligible)
  bool quantifier_free = false;   // membership-testable (MC eligible)
  std::size_t cell_estimate = 1;  // DNF-size estimate of the cell count
  double vc_dim = kDefaultVcDim;  // capped Goldberg-Jerrum bound
};

/// Calibration constants of the cost model (nanoseconds). Defaults were
/// fitted on the bench_a3_planner workload; they only need to get the
/// *ordering* right, not absolute times.
struct CostModel {
  double exact_cell_ns = 60000.0;   // sweep work per cell^2 * dim unit
  double decompose_cell_ns = 25000.0;  // formula -> cells, per cell
  double mc_point_ns = 60.0;        // membership test per point per atom
  double deadline_safety = 0.8;     // fraction of the deadline to plan for
  std::size_t min_mc_samples = 64;  // below this, MC is pointless
  double vc_dim_cap = 12.0;         // cap on the GJ bound fed to Blumer
};

/// One costed strategy candidate.
struct PlannedStrategy {
  VolumeStrategy strategy = VolumeStrategy::kAuto;
  bool feasible = false;        // can run on this query at all
  bool meets_accuracy = false;  // guaranteed error <= budget.epsilon
  double predicted_ns = 0.0;    // cost-model wall-clock estimate
  double err = 0.0;             // guaranteed error half-width
  std::string note;             // why infeasible / cost summary
};

/// The planner's verdict for one request.
struct PlanDecision {
  FormulaStats stats;
  Budget budget;
  std::vector<PlannedStrategy> considered;  // all candidates, priced
  VolumeStrategy chosen = VolumeStrategy::kAuto;
  std::size_t mc_samples = 0;       // sample size if an MC strategy chose
  double expected_epsilon = 0.0;    // error half-width of the chosen plan
  bool degrade_preplanned = false;  // plan already misses budget.epsilon
  std::string rationale;            // one-line human-readable summary
};

/// Upper estimate of the DNF cell count of a quantifier-free formula
/// (And = product, Or = sum, capped at `cap` to stay O(|f|)).
std::size_t dnf_size_estimate(const FormulaPtr& f, std::size_t cap = 100000);

/// Extracts planner statistics. `analysis` is the best formula available
/// for structure (the QE rewrite when it exists, else the inlined parse);
/// `quantifiers` should count the pre-rewrite query's quantifiers.
FormulaStats extract_stats(const FormulaPtr& analysis,
                           std::size_t dimension, std::size_t quantifiers,
                           const CostModel& model = {});

/// Theorem 4's sample size M: the Blumer et al. bound at
/// (budget.epsilon, budget.delta, vc_dim), with vc_dim defaulting to
/// kDefaultVcDim, then capped at `cap` (0 = uncapped). The one place M is
/// sized: the planner, a pinned Monte-Carlo request and the exact -> MC
/// quota fallback all call it. epsilon or delta outside (0, 1), or a
/// vc_dim that is negative or not finite, is kInvalidArgument; a bound
/// that does not fit std::size_t is kResourceExhausted.
Result<std::size_t> mc_sample_size(const Budget& budget,
                                   std::optional<double> vc_dim,
                                   std::size_t cap = 0);

/// Two-sided Hoeffding error half-width for n Bernoulli samples at
/// confidence 1 - delta: sqrt(ln(2/delta) / 2n), capped at 0.5 (the
/// trivial bars). Returns 0.5 for n == 0. delta must lie in (0, 1).
double hoeffding_epsilon(double delta, std::size_t n);

/// The last rung of the degradation ladder: Proposition 4's constant 1/2
/// with hard bars [0, 1]. Needs no decomposition, so it is always
/// available -- when a deadline expires before any work runs, when a
/// quota trips inside QE, or when the serving layer sheds at admission.
inline VolumeAnswer trivial_half_volume(bool degraded) {
  VolumeAnswer a;
  a.estimate = 0.5;
  a.lower = 0.0;
  a.upper = 1.0;
  a.degraded = degraded;
  return a;
}

/// The planner: pure function from stats + budget to a decision.
PlanDecision plan_volume(const FormulaStats& stats, const Budget& budget,
                         const CostModel& model = {});

/// Short lowercase tag for metrics/logs ("exact", "inclusion_exclusion",
/// "mc", "trivial_half").
const char* strategy_name(VolumeStrategy s);

/// Multi-line debug rendering of a decision (for logs and benches).
std::string plan_to_string(const PlanDecision& d);

}  // namespace cqa

#endif  // CQA_PLAN_PLANNER_H_

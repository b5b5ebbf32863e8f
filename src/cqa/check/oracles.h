// Cross-strategy oracles: the paper's own structure as test invariants.
//
// Differential oracles compare independent computation paths on the
// same formula (Section 2's semantics-preserving QE, Theorem 3's exact
// sweep, Theorem 4's Monte-Carlo bars, the DFK hit-and-run estimator,
// the serial vs pooled sampler, cache-hot vs cache-cold answers, and
// the same requests through Session::run vs Session::submit).
// Metamorphic oracles check volume laws that must hold for *any*
// correct engine: translation invariance, additivity over disjoint
// splits, monotonicity under conjunction, scaling vol(cA) = c^k vol(A),
// and complement-within-box.
//
// Oracles come in two accounting classes. Deterministic oracles must
// never fail: one failing trial is a bug. Statistical oracles (the
// Monte-Carlo bar checks) are *allowed* to fail with probability <=
// delta per trial by Theorem 4; the runner accounts observed failures
// against a binomial budget over the whole run instead of failing on
// the first miss.
//
// Every oracle accepts an inject_fault flag -- the test-only hook that
// deliberately breaks one side of its comparison -- so the harness
// itself (detection, shrinking, repro writing, exit codes) is testable.

#ifndef CQA_CHECK_ORACLES_H_
#define CQA_CHECK_ORACLES_H_

#include <memory>
#include <string>
#include <vector>

#include "cqa/check/generator.h"
#include "cqa/runtime/session.h"

namespace cqa {

/// Outcome of one oracle trial.
enum class TrialStatus {
  kPass,
  kFail,  // invariant violated (deterministic failure: always a bug)
  kSkip,  // formula outside the oracle's domain (degenerate, empty, ...)
};

struct TrialResult {
  TrialStatus status = TrialStatus::kPass;
  std::string detail;

  static TrialResult pass() { return {TrialStatus::kPass, ""}; }
  static TrialResult skip(std::string why) {
    return {TrialStatus::kSkip, std::move(why)};
  }
  static TrialResult fail(std::string why) {
    return {TrialStatus::kFail, std::move(why)};
  }
};

/// What one trial runs against. The database/session pair is shared
/// across an oracle's trials (deliberately: that is what exercises the
/// caches); fresh() builds an isolated cold pair when an oracle needs
/// one.
struct CheckContext {
  ConstraintDatabase* db = nullptr;
  Session* session = nullptr;
  double epsilon = 0.1;  // per-trial MC accuracy target
  double delta = 0.1;    // per-trial MC failure probability
};

class Oracle {
 public:
  virtual ~Oracle() = default;
  /// Stable snake_case identifier (metrics names, repro files, --oracle).
  virtual const char* name() const = 0;
  /// Statistical oracles may fail at rate <= delta per trial; the
  /// runner budgets their failures instead of treating each as a bug.
  virtual bool statistical() const { return false; }
  /// Oracle-specific generator tuning (e.g. convex-only, quantifiers).
  virtual GenOptions tune(GenOptions base) const { return base; }
  /// Runs one trial. `trial_seed` seeds all oracle-local randomness.
  virtual TrialResult check(const CheckContext& ctx,
                            const GeneratedFormula& g,
                            std::uint64_t trial_seed,
                            bool inject_fault) const = 0;
};

/// The registry: every oracle, differential then metamorphic. Pointers
/// are to process-lifetime singletons.
const std::vector<const Oracle*>& all_oracles();

/// Lookup by name(); nullptr when unknown.
const Oracle* find_oracle(const std::string& name);

}  // namespace cqa

#endif  // CQA_CHECK_ORACLES_H_

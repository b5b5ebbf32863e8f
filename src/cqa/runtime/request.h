// Request / Answer: the value types of the unified query API.
//
// A Request names what is asked (kind + query + output variables), under
// what accuracy/latency budget, and -- for the serving layer -- at what
// priority. Session::run(Request) executes one synchronously;
// Session::submit(Request) enqueues one and returns a serve::Ticket.
//
// Requests are validated up front (validate_request): an empty query,
// an epsilon/delta outside (0, 1), a volume-kind request with no
// output variables, or a vc_dim that is not positive and finite comes
// back as kInvalidArgument before any engine runs, instead of failing
// deep inside QE.
//
// The fluent RequestBuilder exists so call sites stop hand-initializing
// aggregate members:
//
//   Request req = Request::volume("x^2 + y^2 <= 1")
//                     .vars({"x", "y"})
//                     .epsilon(0.02)
//                     .deadline_ms(50)
//                     .build();

#ifndef CQA_RUNTIME_REQUEST_H_
#define CQA_RUNTIME_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cqa/core/aggregation_engine.h"
#include "cqa/core/volume_engine.h"
#include "cqa/guard/guard.h"
#include "cqa/plan/planner.h"
#include "cqa/poly/univariate.h"
#include "cqa/util/cancellation.h"
#include "cqa/util/status.h"

namespace cqa {

class RequestBuilder;

/// What a Request asks for.
enum class RequestKind {
  kAsk,               // decide a sentence
  kRewrite,           // quantifier-free equivalent
  kCells,             // closure: output as a union of linear cells
  kVolume,            // VOL of the denotation (planner-routed)
  kMu,                // Chomicki-Kuper measure at infinity
  kGrowthPolynomial,  // V(r) = Vol(S cap [-r,r]^n)
  kAggregate,         // SQL aggregate over a safe output
};

/// Scheduling lane for Session::submit. Within a lane requests are
/// FIFO; across lanes the scheduler serves the highest priority first,
/// except that a request close to its deadline is promoted regardless
/// of lane so background traffic cannot starve it into expiry.
enum class Priority : int {
  kInteractive = 0,  // user-facing, latency-sensitive
  kNormal = 1,       // default
  kBatch = 2,        // bulk/offline work, first to wait under load
};

inline constexpr int kNumPriorities = 3;

/// One query plus its budget: the unit of work Session::run accepts.
struct Request {
  RequestKind kind = RequestKind::kVolume;
  std::string query;
  std::vector<std::string> output_vars;
  Budget budget;
  /// Volume only: bypass the planner and pin one rung. Pinned kAuto /
  /// kInclusionExclusion run the exact engine, kMonteCarlo samples M
  /// points, and kTrivialHalf answers the constant 1/2 (kDegraded when
  /// epsilon < 1/2), the same executors a planned request uses.
  std::optional<VolumeStrategy> strategy;
  std::uint64_t seed = 1;
  /// Volume only: the VC dimension d fed to mc_sample_size, positive
  /// and finite. It replaces the planner's Goldberg-Jerrum bound on a
  /// planner-routed request (and so its exact -> MC quota fallback), and
  /// kDefaultVcDim on a pinned kMonteCarlo request.
  std::optional<double> vc_dim;
  /// Volume only: cap on the sample of a pinned kMonteCarlo request
  /// (0 = the full Blumer bound). The planner and the exact -> MC quota
  /// fallback ignore it. A cap that bites widens the effective epsilon.
  std::size_t max_mc_samples = 0;
  /// Scheduling lane for submit(); run() ignores it.
  Priority priority = Priority::kNormal;
  /// Optional caller-owned cancellation handle threaded through the
  /// engine hot loops alongside the budget deadline. Not owned.
  CancelToken* cancel = nullptr;
  /// Aggregate only.
  AggregateFn aggregate_fn = AggregateFn::kCount;
  std::vector<std::pair<std::string, Rational>> bindings;

  // Fluent construction (see RequestBuilder below).
  static RequestBuilder ask(std::string sentence);
  static RequestBuilder rewrite(std::string query);
  static RequestBuilder cells(std::string query);
  static RequestBuilder volume(std::string query);
  static RequestBuilder mu(std::string query);
  static RequestBuilder growth(std::string query);
  static RequestBuilder aggregate(AggregateFn fn, std::string query);
};

enum class AnswerStatus {
  kOk,        // full-fidelity answer
  kDegraded,  // deadline expired, quota tripped, or load shed:
              // best-so-far answer with honest bars
};

/// The one result type. The payload matching the request kind is set;
/// volume answers carry the plan that produced them.
struct Answer {
  RequestKind kind = RequestKind::kVolume;
  AnswerStatus status = AnswerStatus::kOk;
  std::optional<bool> truth;             // kAsk
  FormulaPtr formula;                    // kRewrite
  std::vector<LinearCell> cells;         // kCells
  VolumeAnswer volume;                   // kVolume
  std::optional<Rational> mu;            // kMu
  std::optional<UPoly> growth;           // kGrowthPolynomial
  std::optional<Rational> aggregate;     // kAggregate
  std::optional<PlanDecision> plan;      // kVolume (planner-routed)
  /// What the request's WorkMeter accounted, whether a quota tripped,
  /// which degradation rung served a volume request, and whether the
  /// serving layer shed it at admission.
  guard::GuardReport guard;
  double elapsed_ms = 0.0;

  bool degraded() const { return status == AnswerStatus::kDegraded; }
};

/// The one VolumeAnswer -> Answer assembly, shared by every volume path.
/// The rung is read off the answer alone: an exact value is kExact; no
/// point evaluated is kTrivialHalf; fewer points than requested is
/// kMcPartial; otherwise kMonteCarlo. The status is kDegraded exactly
/// when v.degraded.
Answer volume_answer(VolumeAnswer v);

/// The last rung of the degradation ladder as a whole Answer: a
/// degraded volume answer carrying Proposition 4's constant 1/2 with
/// hard bars [0, 1], rung kTrivialHalf. Callers set the guard's shed /
/// worker_crashed / worker_hung flags themselves.
inline Answer degraded_half_answer() {
  return volume_answer(trivial_half_volume(true));
}

/// Structural validation, run before any engine: empty query, epsilon
/// or delta outside (0, 1), volume-kind request without output
/// variables, aggregate arity, a vc_dim that is not positive and finite. kInvalidArgument with a message naming
/// the field, kOk otherwise.
Status validate_request(const Request& request);

/// Fluent builder over Request. Every setter returns *this, build()
/// returns the finished value (validation still happens in run/submit,
/// so a builder can express a deliberately invalid request in tests).
class RequestBuilder {
 public:
  explicit RequestBuilder(RequestKind kind, std::string query) {
    request_.kind = kind;
    request_.query = std::move(query);
  }

  RequestBuilder& vars(std::vector<std::string> output_vars) {
    request_.output_vars = std::move(output_vars);
    return *this;
  }
  RequestBuilder& epsilon(double eps) {
    request_.budget.epsilon = eps;
    return *this;
  }
  RequestBuilder& delta(double d) {
    request_.budget.delta = d;
    return *this;
  }
  RequestBuilder& deadline_ms(std::int64_t ms) {
    request_.budget.deadline_ms = ms;
    return *this;
  }
  RequestBuilder& quota(const guard::ResourceQuota& q) {
    request_.budget.quota = q;
    return *this;
  }
  RequestBuilder& strategy(VolumeStrategy s) {
    request_.strategy = s;
    return *this;
  }
  RequestBuilder& seed(std::uint64_t s) {
    request_.seed = s;
    return *this;
  }
  RequestBuilder& vc_dim(double d) {
    request_.vc_dim = d;
    return *this;
  }
  RequestBuilder& max_mc_samples(std::size_t m) {
    request_.max_mc_samples = m;
    return *this;
  }
  RequestBuilder& priority(Priority p) {
    request_.priority = p;
    return *this;
  }
  RequestBuilder& cancel(CancelToken* token) {
    request_.cancel = token;
    return *this;
  }
  RequestBuilder& bind(std::string var, Rational value) {
    request_.bindings.emplace_back(std::move(var), std::move(value));
    return *this;
  }
  RequestBuilder& fn(AggregateFn f) {
    request_.aggregate_fn = f;
    return *this;
  }

  Request build() { return std::move(request_); }
  // NOLINTNEXTLINE(google-explicit-constructor): `run(b)` ergonomics.
  operator Request() { return build(); }

 private:
  Request request_;
};

inline RequestBuilder Request::ask(std::string sentence) {
  return RequestBuilder(RequestKind::kAsk, std::move(sentence));
}
inline RequestBuilder Request::rewrite(std::string query) {
  return RequestBuilder(RequestKind::kRewrite, std::move(query));
}
inline RequestBuilder Request::cells(std::string query) {
  return RequestBuilder(RequestKind::kCells, std::move(query));
}
inline RequestBuilder Request::volume(std::string query) {
  return RequestBuilder(RequestKind::kVolume, std::move(query));
}
inline RequestBuilder Request::mu(std::string query) {
  return RequestBuilder(RequestKind::kMu, std::move(query));
}
inline RequestBuilder Request::growth(std::string query) {
  return RequestBuilder(RequestKind::kGrowthPolynomial, std::move(query));
}
inline RequestBuilder Request::aggregate(AggregateFn fn, std::string query) {
  RequestBuilder b(RequestKind::kAggregate, std::move(query));
  b.fn(fn);
  return b;
}

}  // namespace cqa

#endif  // CQA_RUNTIME_REQUEST_H_

#include "cqa/runtime/request.h"

#include <cmath>
#include <utility>

namespace cqa {

namespace {

bool is_volume_kind(RequestKind k) {
  return k == RequestKind::kVolume || k == RequestKind::kMu ||
         k == RequestKind::kGrowthPolynomial;
}

}  // namespace

Answer volume_answer(VolumeAnswer v) {
  Answer a;
  a.kind = RequestKind::kVolume;
  if (v.exact) {
    a.guard.rung = guard::Rung::kExact;
  } else if (v.points_evaluated == 0) {
    a.guard.rung = guard::Rung::kTrivialHalf;
  } else if (v.points_evaluated < v.points_requested) {
    a.guard.rung = guard::Rung::kMcPartial;
  } else {
    a.guard.rung = guard::Rung::kMonteCarlo;
  }
  if (v.degraded) a.status = AnswerStatus::kDegraded;
  a.volume = std::move(v);
  return a;
}

Status validate_request(const Request& request) {
  if (request.query.empty()) {
    return Status::invalid("request has an empty query");
  }
  if (!(request.budget.epsilon > 0.0 && request.budget.epsilon < 1.0)) {
    return Status::invalid(
        "budget.epsilon must lie in (0, 1), got " +
        std::to_string(request.budget.epsilon));
  }
  if (!(request.budget.delta > 0.0 && request.budget.delta < 1.0)) {
    return Status::invalid("budget.delta must lie in (0, 1), got " +
                           std::to_string(request.budget.delta));
  }
  if (is_volume_kind(request.kind) && request.output_vars.empty()) {
    return Status::invalid(
        "volume-kind requests need at least one output variable");
  }
  if (request.kind == RequestKind::kAggregate &&
      request.output_vars.size() != 1) {
    return Status::invalid(
        "aggregate requests take exactly one output variable");
  }
  if (request.vc_dim &&
      !(std::isfinite(*request.vc_dim) && *request.vc_dim > 0.0)) {
    return Status::invalid("vc_dim override must be positive and finite");
  }
  return Status::ok();
}

}  // namespace cqa

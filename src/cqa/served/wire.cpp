#include "cqa/served/wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "cqa/logic/printer.h"
#include "cqa/util/bincode.h"

namespace cqa {
namespace served {

namespace {

using namespace bincode;

constexpr std::uint64_t kFrameChecksumSalt = 0xf4a3ec5c0dedULL;

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// send/recv with EINTR retry. MSG_NOSIGNAL: a peer that died mid-write
// must surface as EPIPE, not kill the process with SIGPIPE.
Status write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::internal(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

// Reads exactly len bytes. `any_read` reports whether a partial frame
// was consumed before EOF (a truncated frame is corruption; EOF on a
// frame boundary is a clean close). `deadline` < 0 blocks forever;
// otherwise each recv waits (via poll) only for the remaining budget
// and expiry returns kDeadlineExceeded -- possibly mid-read.
Status read_all(int fd, char* data, std::size_t len, bool* any_read,
                std::int64_t deadline) {
  std::size_t off = 0;
  while (off < len) {
    if (deadline >= 0) {
      const std::int64_t remaining = deadline - steady_now_ms();
      if (remaining <= 0) {
        return Status::deadline_exceeded("wire read timed out");
      }
      pollfd pfd{fd, POLLIN, 0};
      const int rc = poll(&pfd, 1,
                          static_cast<int>(remaining > 1000000 ? 1000000
                                                               : remaining));
      if (rc < 0 && errno != EINTR) {
        return Status::internal(std::string("poll: ") + std::strerror(errno));
      }
      if (rc <= 0) continue;  // timeout slice or EINTR: re-check budget
    }
    const ssize_t n = ::recv(fd, data + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::internal(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (off == 0 && !*any_read) {
        return Status::cancelled("connection closed");
      }
      return Status::internal("connection closed mid-frame");
    }
    *any_read = true;
    off += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status decode_error() {
  return Status::invalid("malformed wire payload");
}

void put_opt_f64(std::string* out, const std::optional<double>& v) {
  put_u8(out, v ? 1 : 0);
  put_f64(out, v ? *v : 0.0);
}

bool get_opt_f64(Reader* r, std::optional<double>* v) {
  std::uint8_t has;
  double d;
  if (!r->get_u8(&has) || !r->get_f64(&d)) return false;
  if (has) *v = d;
  return true;
}

void put_opt_rational(std::string* out,
                      const std::optional<Rational>& v) {
  put_u8(out, v ? 1 : 0);
  put_str(out, v ? v->to_string() : std::string());
}

bool get_opt_rational(Reader* r, std::optional<Rational>* v) {
  std::uint8_t has;
  std::string s;
  if (!r->get_u8(&has) || !r->get_str(&s)) return false;
  if (has) {
    auto parsed = Rational::from_string(s);
    if (!parsed.is_ok()) return false;
    *v = std::move(parsed).take();
  }
  return true;
}

}  // namespace

std::uint64_t frame_checksum(const std::string& body) {
  return bincode::fnv1a(body, kFrameChecksumSalt);
}

Status write_frame(int fd, MsgType type, std::uint64_t id,
                   const std::string& payload) {
  if (payload.size() + 10 > kMaxFrameBody) {
    return Status::invalid("frame payload over size bound");
  }
  std::string body;
  body.reserve(10 + payload.size());
  put_u8(&body, kWireVersion);
  put_u8(&body, static_cast<std::uint8_t>(type));
  put_u64(&body, id);
  body.append(payload);
  std::string buf;
  buf.reserve(12 + body.size());
  put_u32(&buf, static_cast<std::uint32_t>(body.size()));
  put_u64(&buf, frame_checksum(body));
  buf.append(body);
  return write_all(fd, buf.data(), buf.size());
}

Status read_frame(int fd, Frame* out, std::int64_t timeout_ms) {
  const std::int64_t deadline =
      timeout_ms < 0 ? -1 : steady_now_ms() + timeout_ms;
  bool any_read = false;
  char head[12];
  CQA_RETURN_IF_ERROR(read_all(fd, head, sizeof(head), &any_read, deadline));
  std::uint32_t body_len = 0;
  std::uint64_t checksum = 0;
  Reader hr(head, sizeof(head));
  hr.get_u32(&body_len);
  hr.get_u64(&checksum);
  if (body_len < 10 || body_len > kMaxFrameBody) {
    return Status::invalid("frame length out of bounds");
  }
  std::string body(body_len, '\0');
  CQA_RETURN_IF_ERROR(
      read_all(fd, body.data(), body.size(), &any_read, deadline));
  if (frame_checksum(body) != checksum) {
    return Status::invalid("frame checksum mismatch (corrupt wire)");
  }
  Reader r(body);
  std::uint8_t version = 0, type = 0;
  r.get_u8(&version);
  r.get_u8(&type);
  r.get_u64(&out->id);
  if (version != kWireVersion) {
    return Status::invalid("wire protocol version mismatch: got " +
                           std::to_string(version) + ", want " +
                           std::to_string(kWireVersion));
  }
  if (type < static_cast<std::uint8_t>(MsgType::kRequest) ||
      type > static_cast<std::uint8_t>(MsgType::kStatsReply)) {
    return Status::invalid("unknown frame type " + std::to_string(type));
  }
  out->type = static_cast<MsgType>(type);
  out->payload.assign(body, 10, body.size() - 10);
  return Status::ok();
}

std::string encode_request(const Request& request) {
  std::string out;
  out.reserve(128 + request.query.size());
  put_u8(&out, static_cast<std::uint8_t>(request.kind));
  put_str(&out, request.query);
  put_u64(&out, request.output_vars.size());
  for (const auto& v : request.output_vars) put_str(&out, v);
  put_f64(&out, request.budget.epsilon);
  put_f64(&out, request.budget.delta);
  put_i64(&out, request.budget.deadline_ms);
  put_u64(&out, request.budget.quota.max_qe_atoms);
  put_u64(&out, request.budget.quota.max_fm_rows);
  put_u64(&out, request.budget.quota.max_sweep_sections);
  put_u64(&out, request.budget.quota.max_bigint_bits);
  put_u64(&out, request.budget.quota.max_resident_bytes);
  put_u8(&out, request.strategy
                   ? static_cast<std::uint8_t>(*request.strategy)
                   : std::uint8_t{0xff});
  put_u64(&out, request.seed);
  put_u8(&out, request.vc_dim ? 1 : 0);
  put_f64(&out, request.vc_dim ? *request.vc_dim : 0.0);
  put_u64(&out, request.max_mc_samples);
  put_u8(&out, static_cast<std::uint8_t>(request.priority));
  put_u8(&out, static_cast<std::uint8_t>(request.aggregate_fn));
  put_u64(&out, request.bindings.size());
  for (const auto& [name, value] : request.bindings) {
    put_str(&out, name);
    put_str(&out, value.to_string());
  }
  return out;
}

Result<Request> decode_request(const std::string& payload) {
  Reader r(payload);
  Request req;
  std::uint8_t kind, strategy, has_vc, priority, aggregate_fn;
  std::uint64_t nvars, seed, max_mc, nbind;
  std::uint64_t q0, q1, q2, q3, q4;
  double vc = 0.0;
  if (!r.get_u8(&kind) || !r.get_str(&req.query) || !r.get_u64(&nvars)) {
    return decode_error();
  }
  if (kind > static_cast<std::uint8_t>(RequestKind::kAggregate)) {
    return Status::invalid("unknown request kind on wire");
  }
  req.kind = static_cast<RequestKind>(kind);
  for (std::uint64_t i = 0; i < nvars; ++i) {
    std::string v;
    if (!r.get_str(&v)) return decode_error();
    req.output_vars.push_back(std::move(v));
  }
  if (!r.get_f64(&req.budget.epsilon) || !r.get_f64(&req.budget.delta) ||
      !r.get_i64(&req.budget.deadline_ms) || !r.get_u64(&q0) ||
      !r.get_u64(&q1) || !r.get_u64(&q2) || !r.get_u64(&q3) ||
      !r.get_u64(&q4) || !r.get_u8(&strategy) || !r.get_u64(&seed) ||
      !r.get_u8(&has_vc) || !r.get_f64(&vc) || !r.get_u64(&max_mc) ||
      !r.get_u8(&priority) || !r.get_u8(&aggregate_fn) ||
      !r.get_u64(&nbind)) {
    return decode_error();
  }
  req.budget.quota.max_qe_atoms = static_cast<std::size_t>(q0);
  req.budget.quota.max_fm_rows = static_cast<std::size_t>(q1);
  req.budget.quota.max_sweep_sections = static_cast<std::size_t>(q2);
  req.budget.quota.max_bigint_bits = static_cast<std::size_t>(q3);
  req.budget.quota.max_resident_bytes = static_cast<std::size_t>(q4);
  if (strategy != 0xff) {
    if (strategy > static_cast<std::uint8_t>(VolumeStrategy::kTrivialHalf)) {
      return Status::invalid("unknown volume strategy on wire");
    }
    req.strategy = static_cast<VolumeStrategy>(strategy);
  }
  req.seed = seed;
  if (has_vc) req.vc_dim = vc;
  req.max_mc_samples = static_cast<std::size_t>(max_mc);
  req.priority = priority < kNumPriorities
                     ? static_cast<Priority>(priority)
                     : Priority::kNormal;
  if (aggregate_fn > static_cast<std::uint8_t>(AggregateFn::kMax)) {
    return Status::invalid("unknown aggregate function on wire");
  }
  req.aggregate_fn = static_cast<AggregateFn>(aggregate_fn);
  for (std::uint64_t i = 0; i < nbind; ++i) {
    std::string name, value;
    if (!r.get_str(&name) || !r.get_str(&value)) return decode_error();
    auto parsed = Rational::from_string(value);
    if (!parsed.is_ok()) {
      return Status::invalid("malformed binding value on wire: " + value);
    }
    req.bindings.emplace_back(std::move(name), std::move(parsed).take());
  }
  if (!r.exhausted()) return decode_error();
  return req;
}

// Answer layout (the first three bytes are the answer_is_cacheable
// peek: ok flag, kind, answer status):
//   u8 ok
//   !ok: u8 status_code, str message
//   ok:  u8 kind, u8 answer_status, u8 truth(0/1/2=absent),
//        u8 has_formula + str printed_formula,
//        volume: opt exact, opt estimate, opt lower, opt upper,
//                u8 degraded, u64 points_evaluated, u64 points_requested,
//        opt mu, u8 has_growth + u64 ncoeffs + coeff strs,
//        opt aggregate,
//        guard: 5x u64 usage, u8 quota_tripped, str tripped_quota,
//               u8 rung, u8 shed, u8 worker_crashed, u8 worker_hung,
//        f64 elapsed_ms
std::string encode_answer(const Result<Answer>& result,
                          const VarTable* vars) {
  std::string out;
  if (!result.is_ok()) {
    put_u8(&out, 0);
    put_u8(&out, static_cast<std::uint8_t>(result.status().code()));
    put_str(&out, result.status().message());
    return out;
  }
  const Answer& a = result.value();
  put_u8(&out, 1);
  put_u8(&out, static_cast<std::uint8_t>(a.kind));
  put_u8(&out, static_cast<std::uint8_t>(a.status));
  put_u8(&out, a.truth ? (*a.truth ? 1 : 0) : 2);
  put_u8(&out, a.formula ? 1 : 0);
  put_str(&out, a.formula
                    ? (vars ? to_string(a.formula, *vars)
                            : to_string(a.formula))
                    : std::string());
  put_opt_rational(&out, a.volume.exact);
  put_opt_f64(&out, a.volume.estimate);
  put_opt_f64(&out, a.volume.lower);
  put_opt_f64(&out, a.volume.upper);
  put_u8(&out, a.volume.degraded ? 1 : 0);
  put_u64(&out, a.volume.points_evaluated);
  put_u64(&out, a.volume.points_requested);
  put_opt_rational(&out, a.mu);
  put_u8(&out, a.growth ? 1 : 0);
  put_u64(&out, a.growth ? a.growth->coeffs().size() : 0);
  if (a.growth) {
    for (const auto& c : a.growth->coeffs()) put_str(&out, c.to_string());
  }
  put_opt_rational(&out, a.aggregate);
  put_u64(&out, a.guard.usage.qe_atoms);
  put_u64(&out, a.guard.usage.fm_rows_peak);
  put_u64(&out, a.guard.usage.sweep_sections);
  put_u64(&out, a.guard.usage.bigint_bits_peak);
  put_u64(&out, a.guard.usage.resident_bytes);
  put_u8(&out, a.guard.quota_tripped ? 1 : 0);
  put_str(&out, a.guard.tripped_quota);
  put_u8(&out, static_cast<std::uint8_t>(a.guard.rung));
  put_u8(&out, a.guard.shed ? 1 : 0);
  put_u8(&out, a.guard.worker_crashed ? 1 : 0);
  put_u8(&out, a.guard.worker_hung ? 1 : 0);
  put_f64(&out, a.elapsed_ms);
  return out;
}

Status decode_answer(const std::string& payload, ConstraintDatabase* db,
                     Result<Answer>* out) {
  Reader r(payload);
  std::uint8_t ok;
  if (!r.get_u8(&ok)) return decode_error();
  if (!ok) {
    std::uint8_t code;
    std::string message;
    if (!r.get_u8(&code) || !r.get_str(&message) ||
        code > static_cast<std::uint8_t>(StatusCode::kResourceExhausted) ||
        code == 0) {
      return decode_error();
    }
    *out = Status(static_cast<StatusCode>(code), std::move(message));
    return Status::ok();
  }
  Answer a;
  std::uint8_t kind, status, truth, has_formula, degraded, has_growth;
  std::uint8_t quota_tripped, rung, shed, crashed, hung;
  std::string formula_text;
  std::uint64_t pe, pr, ncoeffs;
  if (!r.get_u8(&kind) || !r.get_u8(&status) || !r.get_u8(&truth) ||
      !r.get_u8(&has_formula) || !r.get_str(&formula_text)) {
    return decode_error();
  }
  if (kind > static_cast<std::uint8_t>(RequestKind::kAggregate) ||
      status > static_cast<std::uint8_t>(AnswerStatus::kDegraded) ||
      truth > 2) {
    return decode_error();
  }
  a.kind = static_cast<RequestKind>(kind);
  a.status = static_cast<AnswerStatus>(status);
  if (truth != 2) a.truth = (truth == 1);
  if (has_formula && db != nullptr) {
    auto parsed = db->parse(formula_text);
    if (!parsed.is_ok()) {
      return Status::internal("remote formula failed to re-parse: " +
                              parsed.status().message());
    }
    a.formula = parsed.value();
  }
  if (!get_opt_rational(&r, &a.volume.exact) ||
      !get_opt_f64(&r, &a.volume.estimate) ||
      !get_opt_f64(&r, &a.volume.lower) ||
      !get_opt_f64(&r, &a.volume.upper) || !r.get_u8(&degraded) ||
      !r.get_u64(&pe) || !r.get_u64(&pr)) {
    return decode_error();
  }
  a.volume.degraded = degraded != 0;
  a.volume.points_evaluated = static_cast<std::size_t>(pe);
  a.volume.points_requested = static_cast<std::size_t>(pr);
  if (!get_opt_rational(&r, &a.mu) || !r.get_u8(&has_growth) ||
      !r.get_u64(&ncoeffs)) {
    return decode_error();
  }
  if (has_growth) {
    std::vector<Rational> coeffs;
    for (std::uint64_t i = 0; i < ncoeffs; ++i) {
      std::string c;
      if (!r.get_str(&c)) return decode_error();
      auto parsed = Rational::from_string(c);
      if (!parsed.is_ok()) return decode_error();
      coeffs.push_back(std::move(parsed).take());
    }
    a.growth = UPoly(std::move(coeffs));
  }
  if (!get_opt_rational(&r, &a.aggregate) ||
      !r.get_u64(&a.guard.usage.qe_atoms) ||
      !r.get_u64(&a.guard.usage.fm_rows_peak) ||
      !r.get_u64(&a.guard.usage.sweep_sections) ||
      !r.get_u64(&a.guard.usage.bigint_bits_peak) ||
      !r.get_u64(&a.guard.usage.resident_bytes) ||
      !r.get_u8(&quota_tripped) || !r.get_str(&a.guard.tripped_quota) ||
      !r.get_u8(&rung) || !r.get_u8(&shed) || !r.get_u8(&crashed) ||
      !r.get_u8(&hung) || !r.get_f64(&a.elapsed_ms)) {
    return decode_error();
  }
  if (rung > static_cast<std::uint8_t>(guard::Rung::kTrivialHalf)) {
    return decode_error();
  }
  a.guard.quota_tripped = quota_tripped != 0;
  a.guard.rung = static_cast<guard::Rung>(rung);
  a.guard.shed = shed != 0;
  a.guard.worker_crashed = crashed != 0;
  a.guard.worker_hung = hung != 0;
  if (!r.exhausted()) return decode_error();
  *out = std::move(a);
  return Status::ok();
}

bool answer_is_cacheable(const std::string& payload) {
  // u8 ok == 1, u8 kind, u8 answer_status == kOk.
  return payload.size() >= 3 && payload[0] == 1 &&
         payload[2] == static_cast<char>(AnswerStatus::kOk);
}

}  // namespace served
}  // namespace cqa

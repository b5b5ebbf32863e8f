// Status / Result error-handling primitives (Arrow/RocksDB style).
//
// Library code returns cqa::Status or cqa::Result<T> instead of throwing
// across public API boundaries. CQA_DCHECK guards programmer errors.

#ifndef CQA_UTIL_STATUS_H_
#define CQA_UTIL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace cqa {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotImplemented,
  kOutOfRange,
  kInternal,
  kUnsupported,
  kDeadlineExceeded,
  kCancelled,
  kResourceExhausted,
};

/// Lightweight success/error carrier.
///
/// A Status is either OK or holds a code plus a human-readable message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status ok() { return Status(); }
  static Status invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status not_implemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status out_of_range(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status deadline_exceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status resource_exhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string to_string() const {
    if (is_ok()) return "OK";
    return std::string(code_name(code_)) + ": " + msg_;
  }

 private:
  static const char* code_name(StatusCode c) {
    switch (c) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kNotImplemented: return "NotImplemented";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kUnsupported: return "Unsupported";
      case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
      case StatusCode::kCancelled: return "Cancelled";
      case StatusCode::kResourceExhausted: return "ResourceExhausted";
    }
    return "Unknown";
  }

  StatusCode code_;
  std::string msg_;
};

/// Either a value of type T or an error Status.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): ergonomic returns.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {
    if (status_.is_ok()) {
      status_ = Status::internal("Result constructed from OK status");
    }
  }

  bool is_ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Value access. Undefined if !is_ok() (guarded by CQA_DCHECK in debug).
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& take() && { return std::move(*value_); }

  const T& value_or_die() const {
    if (!is_ok()) {
      std::fprintf(stderr, "cqa: value_or_die on error: %s\n",
                   status_.to_string().c_str());
      std::abort();
    }
    return *value_;
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace cqa

/// Fatal-check macro for invariant violations (always on: exactness bugs
/// must not propagate silently into "exact" answers).
#define CQA_CHECK(cond)                                                   \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "CQA_CHECK failed: %s at %s:%d\n", #cond,      \
                   __FILE__, __LINE__);                                   \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

#define CQA_DCHECK(cond) CQA_CHECK(cond)

/// Early-return helpers for Status/Result plumbing.
#define CQA_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::cqa::Status _st = (expr);                    \
    if (!_st.is_ok()) return _st;                  \
  } while (0)

#endif  // CQA_UTIL_STATUS_H_

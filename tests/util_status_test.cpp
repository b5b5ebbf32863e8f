#include "cqa/util/status.h"

#include <gtest/gtest.h>

namespace cqa {
namespace {

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::ok().is_ok());
  EXPECT_EQ(Status::ok().to_string(), "OK");
  Status s = Status::invalid("bad arg");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.to_string(), "InvalidArgument: bad arg");
  EXPECT_EQ(Status::not_implemented("x").code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(Status::out_of_range("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::unsupported("x").code(), StatusCode::kUnsupported);
}

TEST(Status, ResourceExhausted) {
  Status s = Status::resource_exhausted("quota exceeded: qe_atoms");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "quota exceeded: qe_atoms");
  EXPECT_EQ(s.to_string(), "ResourceExhausted: quota exceeded: qe_atoms");
  // Distinct from the expiry codes it degrades alongside.
  EXPECT_NE(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.code(), StatusCode::kCancelled);
}

TEST(Status, ResourceExhaustedThroughResult) {
  Result<int> r = Status::resource_exhausted("out of sweep sections");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().message(), "out of sweep sections");
}

TEST(ResultT, ValueAndStatus) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.value_or_die(), 42);
  Result<int> bad = Status::invalid("nope");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().message(), "nope");
}

TEST(ResultT, MoveTake) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "hello");
}

TEST(ResultT, OkStatusIntoResultBecomesInternalError) {
  // Constructing a Result from an OK status is a programming error that
  // degrades to an internal error rather than UB.
  Result<int> weird = Status::ok();
  EXPECT_FALSE(weird.is_ok());
  EXPECT_EQ(weird.status().code(), StatusCode::kInternal);
}

Status helper_returns_error() { return Status::invalid("inner"); }

Status uses_return_if_error() {
  CQA_RETURN_IF_ERROR(helper_returns_error());
  return Status::ok();
}

Status uses_return_if_error_ok() {
  CQA_RETURN_IF_ERROR(Status::ok());
  return Status::internal("reached");
}

TEST(Macros, ReturnIfError) {
  EXPECT_EQ(uses_return_if_error().message(), "inner");
  EXPECT_EQ(uses_return_if_error_ok().message(), "reached");
}

}  // namespace
}  // namespace cqa

#include "src/util/status.h"

#include <gtest/gtest.h>

namespace triclust {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryHelpersSetCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, EveryFactoryMapsToItsCode) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IoError("a"));
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotConverged),
               "NotConverged");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  const std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

namespace macros {

Status FailWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Caller(int x, bool* reached_end) {
  TRICLUST_RETURN_IF_ERROR(FailWhenNegative(x));
  *reached_end = true;
  return Status::OK();
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssign(int x, int* out) {
  TRICLUST_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

}  // namespace macros

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  bool reached_end = false;
  EXPECT_FALSE(macros::Caller(-1, &reached_end).ok());
  EXPECT_FALSE(reached_end);
  EXPECT_TRUE(macros::Caller(1, &reached_end).ok());
  EXPECT_TRUE(reached_end);
}

TEST(StatusMacrosTest, AssignOrReturnUnwrapsOrPropagates) {
  int out = 0;
  EXPECT_TRUE(macros::UseAssign(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(macros::UseAssign(3, &out).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace triclust

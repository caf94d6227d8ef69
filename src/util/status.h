#ifndef TRICLUST_SRC_UTIL_STATUS_H_
#define TRICLUST_SRC_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "src/util/logging.h"

namespace triclust {

/// Error category for a failed operation. Mirrors the Status idiom used by
/// Arrow/RocksDB: fallible operations return a Status (or Result<T>) instead
/// of throwing; programming errors use TRICLUST_CHECK.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kFailedPrecondition = 5,
  kIoError = 6,
  kParseError = 7,
  kNotConverged = 8,
  kInternal = 9,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Outcome of a fallible operation: a code plus an explanatory message.
/// A default-constructed Status is OK. Statuses are cheap to copy.
///
/// [[nodiscard]] on the class makes *every* function returning a Status
/// by value warn (error under -Werror / the CI builds) when the call
/// site drops the result — an unchecked save or close is exactly how
/// silent data loss ships. A deliberate discard must be spelled
/// `(void)expr;` with a comment saying why ignoring the error is
/// correct there.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotConverged(std::string msg) {
    return Status(StatusCode::kNotConverged, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Modeled after
/// arrow::Result. Accessing the value of an errored Result aborts, so check
/// ok() (or use ValueOr) first. [[nodiscard]] as with Status: dropping a
/// Result discards the error AND the value, which is never intentional.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value (the common success path).
  Result(T value)  // NOLINT(runtime/explicit)
      : value_(std::move(value)), status_(Status::OK()) {}

  /// Implicit construction from an error status. Must not be OK.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return value_.has_value(); }

  /// The error status; OK if the result holds a value.
  const Status& status() const { return status_; }

  /// The contained value. Requires ok().
  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  /// The contained value, or `fallback` when errored.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  /// The contained value; aborts with the error on failure. For callers
  /// with no recovery path (tests, benches, examples) — using it both
  /// satisfies [[nodiscard]] and turns a silently-ignored error into a
  /// loud one. Library code should propagate the Status instead.
  T& ValueOrDie() & {
    DieIfError();
    return *value_;
  }
  T&& ValueOrDie() && {
    DieIfError();
    return std::move(*value_);
  }

 private:
  void DieIfError() const {
    if (!ok()) {
      internal_logging::FatalLogMessage(__FILE__, __LINE__,
                                        "Result::ValueOrDie on error")
          << ": " << status_.ToString();
    }
  }

  std::optional<T> value_;
  Status status_ = Status::Internal("result holds no value");
};

/// Propagates an error Status out of the current function.
#define TRICLUST_RETURN_IF_ERROR(expr)                  \
  do {                                                  \
    ::triclust::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                          \
  } while (false)

/// Assigns the value of a Result expression to `lhs`, or propagates the
/// error Status out of the current function.
#define TRICLUST_ASSIGN_OR_RETURN(lhs, expr)            \
  auto TRICLUST_CONCAT_(_res_, __LINE__) = (expr);      \
  if (!TRICLUST_CONCAT_(_res_, __LINE__).ok())          \
    return TRICLUST_CONCAT_(_res_, __LINE__).status();  \
  lhs = std::move(TRICLUST_CONCAT_(_res_, __LINE__)).value()

#define TRICLUST_CONCAT_IMPL_(a, b) a##b
#define TRICLUST_CONCAT_(a, b) TRICLUST_CONCAT_IMPL_(a, b)

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_STATUS_H_

#ifndef GEOALIGN_COMMON_STATUS_H_
#define GEOALIGN_COMMON_STATUS_H_

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace geoalign {

/// Machine-readable failure category carried by a `Status`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kAlreadyExists,
  kUnimplemented,
  kInternal,
  kIOError,
};

/// Returns the canonical spelling of `code` (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// Error-or-success result of an operation, in the style of
/// absl::Status / arrow::Status. Library code never throws; fallible
/// functions return `Status` (or `Result<T>`, below) instead.
///
/// The OK status carries no message and is cheap to copy (no
/// allocation). Error statuses carry a code and a human-readable
/// message.
///
/// The class is `[[nodiscard]]`: any call that returns a `Status` by
/// value must consume it (check `ok()`, propagate it with
/// `GEOALIGN_RETURN_IF_ERROR`, or assert with `CheckOK`). Silently
/// dropping an error is a compile error under GEOALIGN_WERROR.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// Aborts the process with the status message if not OK. Intended for
  /// call sites where failure is a programming error.
  void CheckOK() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Value-or-error: holds either a `T` or a non-OK `Status`.
/// Mirrors arrow::Result / absl::StatusOr at the size this project needs.
/// `[[nodiscard]]` for the same reason as `Status`: a discarded
/// `Result` is a silently dropped error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: `return some_t;` inside a Result-returning
  /// function reads naturally, matching absl::StatusOr.
  Result(T value) : value_(std::move(value)) {}

  /// Implicit from a non-OK status: `return Status::InvalidArgument(...)`.
  Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  /// Value accessors; must not be called unless `ok()`.
  const T& value() const& {
    CheckHasValue();
    return *value_;
  }
  T& value() & {
    CheckHasValue();
    return *value_;
  }
  T&& value() && {
    CheckHasValue();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, aborting with the status message on error.
  /// Convenience for tests/examples where errors are fatal.
  T ValueOrDie() && {
    status_.CheckOK();
    return *std::move(value_);
  }

 private:
  void CheckHasValue() const {
    if (!value_.has_value()) status_.CheckOK();
  }

  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the enclosing function. This is
/// the canonical error-propagation macro; use it instead of hand-rolled
/// `if (!s.ok()) return s;` chains.
#define GEOALIGN_RETURN_IF_ERROR(expr)              \
  do {                                              \
    ::geoalign::Status _st = (expr);                \
    if (!_st.ok()) return _st;                      \
  } while (false)

/// Evaluates a Result-returning expression, assigning the value to
/// `lhs` or propagating the error. `lhs` may include a declaration.
#define GEOALIGN_ASSIGN_OR_RETURN(lhs, rexpr)                   \
  GEOALIGN_ASSIGN_OR_RETURN_IMPL(                               \
      GEOALIGN_CONCAT_NAME(_result_, __LINE__), lhs, rexpr)

#define GEOALIGN_ASSIGN_OR_RETURN_IMPL(result, lhs, rexpr) \
  auto result = (rexpr);                                   \
  if (!result.ok()) return result.status();                \
  lhs = std::move(result).value()

#define GEOALIGN_CONCAT_NAME(x, y) GEOALIGN_CONCAT_NAME_INNER(x, y)
#define GEOALIGN_CONCAT_NAME_INNER(x, y) x##y

}  // namespace geoalign

#endif  // GEOALIGN_COMMON_STATUS_H_

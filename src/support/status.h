// Status / Result: exception-free error propagation across library
// boundaries (C++ Core Guidelines E.3: use exceptions only for errors that
// cannot be handled locally; this library opts for explicit error values on
// all fallible public APIs so embedded-style builds can disable exceptions).
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace eric {

/// Error category for a failed operation.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,    ///< Caller passed a malformed or out-of-range value.
  kFailedPrecondition, ///< Object is not in a state that allows the call.
  kNotFound,           ///< Named entity does not exist.
  kParseError,         ///< Input text/bytes could not be parsed.
  kVerificationFailed, ///< Signature or integrity check failed.
  kAuthenticationFailed, ///< Device/source authentication failed.
  kDecryptionFailed,   ///< Ciphertext could not be decrypted.
  kCorruptPackage,     ///< Program package is structurally damaged.
  kUnsupported,        ///< Feature/encoding not supported.
  kResourceExhausted,  ///< A limit (memory, map size, ...) was exceeded.
  kTimeout,            ///< Operation did not complete within its deadline.
  kUnavailable,        ///< Peer unreachable / connection lost; retryable.
  kInternal,           ///< Invariant violation inside the library.
  kInjectedCrash,      ///< A test/soak-injected crash stopped the operation.
};

/// Human-readable name of an ErrorCode (stable, for logs and tests).
std::string_view ErrorCodeName(ErrorCode code);

/// Result of an operation that produces no value.
///
/// A Status is cheap to copy when OK (no allocation) and carries a message
/// only on failure.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a failed status. `code` must not be kOk.
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != ErrorCode::kOk && "use Status::Ok() for success");
  }

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Result<T>: either a value or a failure Status.
///
/// Usage:
///   Result<Package> r = Parse(bytes);
///   if (!r.ok()) return r.status();
///   use(r.value());
template <typename T>
class Result {
 public:
  /// Implicit from value — enables `return some_t;`.
  Result(T value) : data_(std::move(value)) {}
  /// Implicit from failed status — enables `return status;`.
  Result(Status status) : data_(std::move(status)) {
    assert(!std::get<Status>(data_).ok() &&
           "cannot construct Result<T> from an OK status");
  }
  Result(ErrorCode code, std::string message)
      : data_(Status(code, std::move(message))) {}

  bool ok() const { return std::holds_alternative<T>(data_); }

  /// Failure status; OK status if the result holds a value.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(data_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

/// Propagate failure from an expression producing a Status.
#define ERIC_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::eric::Status eric_status_ = (expr);         \
    if (!eric_status_.ok()) return eric_status_;  \
  } while (false)

}  // namespace eric

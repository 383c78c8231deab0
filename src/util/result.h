#ifndef SLIMFAST_UTIL_RESULT_H_
#define SLIMFAST_UTIL_RESULT_H_

#include <optional>
#include <utility>

#include "util/status.h"

namespace slimfast {

/// Value-or-error holder, in the style of `arrow::Result<T>`.
///
/// A `Result<T>` holds either a value of type T (and an OK status), or a
/// non-OK Status describing why the value could not be produced. Accessing
/// the value of an errored Result is a programming bug and aborts.
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, so functions can `return value;`).
  Result(T value)  // NOLINT
      : status_(Status::OK()), value_(std::move(value)) {}

  /// Constructs from an error status (implicit, so functions can
  /// `return Status::InvalidArgument(...);`). Must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      internal::FatalStatus(
          Status::Internal("Result constructed from OK status without value"),
          __FILE__, __LINE__);
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; aborts if this holds an error.
  const T& ValueOrDie() const& {
    EnsureOk();
    return *value_;
  }
  T& ValueOrDie() & {
    EnsureOk();
    return *value_;
  }
  T ValueOrDie() && {
    EnsureOk();
    return std::move(*value_);
  }

  /// Convenience aliases matching std::expected-style code.
  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value if OK, otherwise `fallback`.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void EnsureOk() const {
    if (!status_.ok()) {
      internal::FatalStatus(status_, __FILE__, __LINE__);
    }
  }

  Status status_;
  std::optional<T> value_;
};

/// Propagates the error of a Result expression, otherwise assigns the value
/// to `lhs`. Usage: SLIMFAST_ASSIGN_OR_RETURN(auto x, ComputeX());
#define SLIMFAST_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                   \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).ValueOrDie();

#define SLIMFAST_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define SLIMFAST_ASSIGN_OR_RETURN_NAME(a, b) \
  SLIMFAST_ASSIGN_OR_RETURN_CONCAT(a, b)

#define SLIMFAST_ASSIGN_OR_RETURN(lhs, rexpr)                               \
  SLIMFAST_ASSIGN_OR_RETURN_IMPL(                                           \
      SLIMFAST_ASSIGN_OR_RETURN_NAME(_result_tmp_, __LINE__), lhs, rexpr)

}  // namespace slimfast

#endif  // SLIMFAST_UTIL_RESULT_H_

// Status vocabulary for anytime/fallible entry points.
//
// The decomposition stack has *anytime* semantics: a run that hits its
// deadline, its cancel token, or its piece budget unwinds cleanly and still
// returns a usable best-so-far result (a valid partial decomposition tree,
// a feasible bisection). StatusOr therefore deliberately deviates from the
// absl convention: a non-ok StatusOr may still carry a value. ok() answers
// "did the run complete?"; has_value() answers "is there a usable result?".
//
//   auto r = solver.bisect(h, opts, ctx);
//   if (r.has_value()) use(r->solution);          // possibly degraded
//   if (!r.ok()) log(r.status());                 // why it stopped early
//
// Statuses also replace the remaining throw-based error reporting in the
// IO layer (see hypergraph/io.hpp): malformed input yields
// kInvalidArgument with a message instead of an exception.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace ht {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kCancelled = 1,          // the run's CancelToken fired
  kDeadlineExceeded = 2,   // RunContext::deadline passed
  kResourceExhausted = 3,  // piece/memory budget exhausted
  kInvalidArgument = 4,    // malformed input (IO, option validation)
  kInternal = 5,           // invariant violation surfaced as a status
};

const char* status_code_name(StatusCode code);

class Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Cancelled(std::string msg = {}) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg = {}) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg = {}) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = {}) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Internal(std::string msg = {}) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  const char* code_name() const { return status_code_name(code_); }
  /// "OK" or "DEADLINE_EXCEEDED: <message>".
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }
  friend bool operator!=(const Status& a, const Status& b) {
    return !(a == b);
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Result-or-status with anytime semantics: unlike absl::StatusOr, a
/// degraded status (deadline, cancel, budget) may coexist with a usable
/// best-so-far value. A default-constructed StatusOr is kInternal/empty.
template <typename T>
class StatusOr {
 public:
  StatusOr() : status_(Status::Internal("empty StatusOr")) {}
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  StatusOr(Status status)                          // NOLINT
      : status_(std::move(status)) {}
  StatusOr(Status status, T best_so_far)
      : status_(std::move(status)), value_(std::move(best_so_far)) {}

  /// True iff the run completed normally.
  bool ok() const { return status_.ok(); }
  /// True iff a (possibly degraded) result is available.
  bool has_value() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() {
    HT_CHECK_MSG(value_.has_value(),
                 "StatusOr has no value: " << status_.to_string());
    return *value_;
  }
  const T& value() const {
    HT_CHECK_MSG(value_.has_value(),
                 "StatusOr has no value: " << status_.to_string());
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace ht

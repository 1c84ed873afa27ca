// Recoverable, typed errors for the public chronos:: API.
//
// Request-shaped failures — an unknown node id, an antenna index a device
// does not have, a trace backend asked for a band plan it never recorded, a
// full submission queue — come from *callers* (possibly untrusted ones) and
// must be reportable without unwinding the stack: one malformed request in
// a batch of a million cannot abort the other 999999. `Status` carries a
// machine-checkable code plus a human-readable message; `Result<T>` is the
// expected-style carrier of "a T or a Status". Exceptions remain reserved
// for programmer error (broken invariants, CHRONOS_ENSURES) — the
// contracts.hpp layer is unchanged.
//
// Lives in the mathx base layer (like contracts.hpp) so every layer —
// phy's trace parser, core's backends, the chronos:: facade — can speak
// the same error vocabulary; the types themselves live in the top-level
// `chronos` namespace because they ARE the public surface.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "mathx/contracts.hpp"

namespace chronos {

/// Every request-shaped failure the public API can report. Codes are
/// stable: clients may switch on them.
enum class StatusCode : int {
  kOk = 0,
  /// Request is structurally invalid (empty batch where one is required,
  /// bad option value, receiver without enough antennas to trilaterate...).
  kInvalidArgument,
  /// A NodeId that no backend node answers to.
  kUnknownNode,
  /// The node exists but has no antenna with the requested index.
  kAntennaOutOfRange,
  /// Both endpoints exist, but the backend has no measurement for this
  /// (tx antenna, rx antenna) pairing (e.g. an unrecorded trace link).
  kUnknownLink,
  /// Band structure disagrees with what the backend/pipeline expects.
  kBandMismatch,
  /// A sweep failed structural validation (parse error, truncated
  /// exchange, non-finite values, wrong subcarrier count...).
  kMalformedSweep,
  /// Bounded submission queue is at capacity; retry after collecting
  /// results (flow control, not an error in the request itself).
  kQueueFull,
  /// The operation is not supported by this backend (e.g. fixture
  /// calibration on a trace backend with no device descriptions).
  kUnavailable,
  /// A defect in this library surfaced while serving the request; the
  /// message carries the captured diagnostic.
  kInternal,
  /// A sweep failed the integrity/sanity gate of the ranging pipeline
  /// (band-plan lies, stale/replayed timestamps, collapsed SNR, excess
  /// solver residual, ToA inconsistency): structurally parseable but not
  /// trustworthy — the signature of corruption or spoofing, not of a
  /// malformed request.
  kIntegrityViolation,
  /// Every attempt allowed by the RetryPolicy failed with a retryable
  /// status; the message carries the last attempt's diagnostic.
  kRetryExhausted,
  /// A wire frame failed structural validation (bad magic, oversize or
  /// inconsistent length, unknown frame type, short body): the framing
  /// layer cannot trust anything that follows on this connection.
  kMalformedFrame,
  /// A wire frame carries a protocol version this endpoint does not
  /// speak; distinct from kMalformedFrame so clients can distinguish
  /// "upgrade one side" from "corrupted stream".
  kVersionMismatch,
};

/// Stable identifier for a code ("kQueueFull", ...), for logs and tests.
constexpr const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "kOk";
    case StatusCode::kInvalidArgument: return "kInvalidArgument";
    case StatusCode::kUnknownNode: return "kUnknownNode";
    case StatusCode::kAntennaOutOfRange: return "kAntennaOutOfRange";
    case StatusCode::kUnknownLink: return "kUnknownLink";
    case StatusCode::kBandMismatch: return "kBandMismatch";
    case StatusCode::kMalformedSweep: return "kMalformedSweep";
    case StatusCode::kQueueFull: return "kQueueFull";
    case StatusCode::kUnavailable: return "kUnavailable";
    case StatusCode::kInternal: return "kInternal";
    case StatusCode::kIntegrityViolation: return "kIntegrityViolation";
    case StatusCode::kRetryExhausted: return "kRetryExhausted";
    case StatusCode::kMalformedFrame: return "kMalformedFrame";
    case StatusCode::kVersionMismatch: return "kVersionMismatch";
  }
  return "<invalid StatusCode>";
}

/// Every StatusCode, in declaration order — kAllStatusCodes[i] has numeric
/// value i. The exhaustive code_name round-trip test pins this array (and
/// to_string) against the enum: adding an enumerator without extending both
/// fails the suite.
inline constexpr StatusCode kAllStatusCodes[] = {
    StatusCode::kOk,
    StatusCode::kInvalidArgument,
    StatusCode::kUnknownNode,
    StatusCode::kAntennaOutOfRange,
    StatusCode::kUnknownLink,
    StatusCode::kBandMismatch,
    StatusCode::kMalformedSweep,
    StatusCode::kQueueFull,
    StatusCode::kUnavailable,
    StatusCode::kInternal,
    StatusCode::kIntegrityViolation,
    StatusCode::kRetryExhausted,
    StatusCode::kMalformedFrame,
    StatusCode::kVersionMismatch,
};

/// Symmetric naming for the round-trip pair below (same string as
/// to_string).
constexpr const char* code_name(StatusCode code) { return to_string(code); }

/// Inverse of code_name: parses "kQueueFull" back to its code. nullopt for
/// strings that name no code — the form log/wire consumers want.
constexpr std::optional<StatusCode> code_from_name(std::string_view name) {
  for (const StatusCode code : kAllStatusCodes) {
    if (name == code_name(code)) return code;
  }
  return std::nullopt;
}

/// A typed, recoverable outcome: kOk (default construction) or an error
/// code with a message. Cheap to copy on the success path (empty message).
/// [[nodiscard]] at class scope: ignoring a returned Status silently
/// swallows the error channel, so every discard is a compile warning
/// (-Werror in this tree) unless explicitly (void)-cast with a reason.
/// The class attribute covers every by-value return — free, member or
/// virtual — so declarations carry no per-function [[nodiscard]]; the
/// `lint_nodiscard_*` compile fixtures (tests/lint/nodiscard_fixture.cpp)
/// prove the compiler rejects each kind of discard.
class [[nodiscard]] Status {
 public:
  /// Default = success.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "kUnknownNode: no node with id 42" — for logs and thrown shims.
  std::string to_string() const {
    std::string out = chronos::to_string(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;  // messages are diagnostics, not identity
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Expected-style carrier: either a value or a non-ok Status. Implicitly
/// constructible from both so `return {StatusCode::kUnknownNode, "..."};`
/// and `return some_value;` both read naturally.
/// [[nodiscard]] at class scope, like Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    CHRONOS_EXPECTS(!status_.ok(),
                    "Result constructed from an OK status carries no value");
  }
  Result(StatusCode code, std::string message)
      : status_(code, std::move(message)) {
    CHRONOS_EXPECTS(code != StatusCode::kOk,
                    "Result constructed from an OK status carries no value");
  }

  bool ok() const { return status_.ok(); }
  explicit operator bool() const { return ok(); }

  const Status& status() const { return status_; }

  /// Precondition: ok(). Accessing the value of an error Result is
  /// programmer error and throws (contracts.hpp), never UB.
  const T& value() const& {
    CHRONOS_EXPECTS(ok(), "Result::value() on error: " + status_.to_string());
    return *value_;
  }
  T& value() & {
    CHRONOS_EXPECTS(ok(), "Result::value() on error: " + status_.to_string());
    return *value_;
  }
  T&& value() && {
    CHRONOS_EXPECTS(ok(), "Result::value() on error: " + status_.to_string());
    return std::move(*value_);
  }

  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace chronos

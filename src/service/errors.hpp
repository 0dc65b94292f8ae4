// pet::svc error taxonomy (docs/service.md).
//
// Every response frame carries one StatusCode; fault handling in petd is
// *typed* end to end — a shed request says RESOURCE_EXHAUSTED, a blown
// deadline says DEADLINE_EXCEEDED, a retry-exhausted channel says
// UNAVAILABLE — never a silent hang, never a silently wrong answer.
// Degradation is deliberately NOT a status: a degraded estimate is still a
// success (kOk) whose payload carries an explicit `degraded` flag and a
// widened interval, so clients can't mistake it for a full-contract answer
// but also don't lose the best-effort value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pet::svc {

enum class StatusCode : std::uint16_t {
  kOk = 0,

  // Protocol / session errors.
  kMalformedFrame = 1,       ///< framing decoded but payload didn't parse
  kIncompatibleVersion = 2,  ///< semver major mismatch (see frame.hpp)
  kUnknownCommand = 3,
  kInvalidArgument = 4,

  // Registry errors.
  kNotFound = 5,       ///< population id not registered
  kAlreadyExists = 6,  ///< duplicate registration

  // Fault-tolerance lifecycle errors.
  kResourceExhausted = 7,  ///< bounded queue full / registry full: shed
  kDeadlineExceeded = 8,   ///< deadline can't fit even a degraded answer
  kUnavailable = 9,        ///< transient faults outlasted the retry policy
  kShuttingDown = 10,      ///< drain in progress; no new work accepted
  kInternal = 11,          ///< invariant failure inside the service

  // Capability errors.
  kUnsupported = 12,  ///< command compiled out of this build (PET_OBS=OFF)
};

/// One past the largest StatusCode value (per-status counter arrays).
inline constexpr std::size_t kStatusCodeCount = 13;

[[nodiscard]] constexpr std::string_view to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kMalformedFrame: return "MALFORMED_FRAME";
    case StatusCode::kIncompatibleVersion: return "INCOMPATIBLE_VERSION";
    case StatusCode::kUnknownCommand: return "UNKNOWN_COMMAND";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kShuttingDown: return "SHUTTING_DOWN";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kUnsupported: return "UNSUPPORTED";
  }
  return "UNKNOWN_STATUS";
}

/// Client-side retry guidance: transient conditions worth retrying with
/// backoff against a *different* moment in time (shed, drain, transient
/// channel faults); everything else is either success or a caller bug.
[[nodiscard]] constexpr bool is_retryable(StatusCode code) noexcept {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable ||
         code == StatusCode::kShuttingDown;
}

}  // namespace pet::svc

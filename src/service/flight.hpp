// pet::svc flight recorder: a fixed-size ring of per-request records.
//
// Every request the service handles — including shed ones that never
// reached a handler — leaves one RequestRecord behind.  The ring keeps the
// last `capacity` records so an operator can ask "what happened to request
// X?" after the fact (`petctl trace <request-id>`, wire command
// kFlightDump) without any always-on log volume.
//
// Request IDs are deterministic: FNV-1a over the frame's command and
// payload bytes.  Two byte-identical requests therefore share an ID — the
// ID names the *request content*, not the submission event, which is what
// makes replay-based debugging possible ("re-send the exact frame and you
// get the exact record").  Error replies for shed/degraded requests embed
// the ID in their detail string so a client can quote it back.
//
// The deterministic/profile split from pet::obs carries through: slot-unit
// fields (latency_slots, query_slots, backoff_slots, rounds) replay
// bit-for-bit at any worker_threads; queue_us/handle_us are wall-clock
// profile data and vary run to run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/frame.hpp"

namespace pet::svc {

// Degradation reason bitmask carried by RequestRecord::degrade_mask.
// A degraded kOk reply sets at least one bit; a full-contract reply sets
// none.  kDegradeShed marks requests refused at admission.
inline constexpr std::uint32_t kDegradeTruncated = 1u << 0;    ///< deadline stopped the round loop
inline constexpr std::uint32_t kDegradeFitShort = 1u << 1;     ///< budget planned fewer rounds than (ε, δ) wanted
inline constexpr std::uint32_t kDegradeRetryBudget = 1u << 2;  ///< transient-fault retries ran dry
inline constexpr std::uint32_t kDegradeHealth = 1u << 3;       ///< channel-health diagnostic widened the interval
inline constexpr std::uint32_t kDegradeShed = 1u << 4;         ///< refused at admission (overload / drain)

/// "truncated|fit-short" rendering of a degrade bitmask ("-" when clean).
[[nodiscard]] std::string degrade_mask_to_string(std::uint32_t mask);

/// One handled (or shed) request.  Fixed-width fields only — the record
/// has a frozen wire encoding (see FlightDumpReply in messages.hpp).
struct RequestRecord {
  std::uint64_t request_id = 0;
  std::uint64_t population_id = 0;  ///< 0 when the command has no population
  std::uint16_t command = 0;
  std::uint16_t status = 0;            ///< StatusCode of the reply
  std::uint32_t degrade_mask = 0;      ///< kDegrade* bits
  std::uint64_t planned_rounds = 0;    ///< rounds the (ε, δ) plan wanted
  std::uint64_t rounds = 0;            ///< rounds actually executed
  std::uint32_t retries = 0;           ///< attempts beyond the first
  std::uint64_t backoff_slots = 0;     ///< slot budget burned waiting
  std::uint64_t query_slots = 0;       ///< reply-window slots consumed
  std::uint64_t latency_slots = 0;     ///< backoff + query (kDeterministic)
  /// Admission -> shard worker start; 0 when answered on the submitting
  /// thread (everything but a cache miss) (kProfile).
  std::uint64_t queue_us = 0;
  std::uint64_t handle_us = 0;         ///< handler wall time (kProfile)
  // v1.2 stamps (grew the wire record from 84 to 88 bytes).
  std::uint16_t shard = 0;             ///< population-affine shard (shard.hpp)
  std::uint8_t cache_hit = 0;          ///< 1: reply served from the result cache
};

/// Deterministic, content-addressed request ID for a frame (never 0 — 0 is
/// the kFlightDump wildcard filter).
[[nodiscard]] std::uint64_t derive_request_id(const Frame& frame) noexcept;

/// Render an ID the way error details and petctl print it ("0x" + 16 hex).
[[nodiscard]] std::string format_request_id(std::uint64_t request_id);

/// Fixed-capacity ring of the most recent records.  Thread-safe; record()
/// is a short critical section (no allocation once the ring is full).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void record(const RequestRecord& record);

  /// Oldest-to-newest snapshot.  `request_id` 0 matches every record;
  /// `max_records` 0 means no cap, otherwise the *newest* max_records
  /// matches are returned.
  [[nodiscard]] std::vector<RequestRecord> dump(
      std::uint64_t request_id = 0, std::size_t max_records = 0) const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total records ever recorded (monotone; exceeds capacity() once the
  /// ring has wrapped).
  [[nodiscard]] std::uint64_t recorded() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<RequestRecord> ring_;
  std::size_t next_ = 0;        ///< slot the next record overwrites
  std::uint64_t recorded_ = 0;  ///< lifetime total
};

}  // namespace pet::svc

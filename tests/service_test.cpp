// pet::svc — framing, retry, registry, and the fault-tolerant estimation
// service behind petd (docs/service.md).
//
// The load-bearing suites:
//   * FrameCodec.*: the decoder is *total* — truncated, corrupted,
//     oversized, or adversarial bytes produce typed errors, never UB
//     (the fuzz cases are the ASan/UBSan payload of the service label);
//   * Retry.* / Service.RetryScheduleByteIdenticalAcrossThreads: identical
//     seeded transient-fault streams yield byte-identical retry schedules
//     and responses at worker_threads 1, 2, and 8;
//   * Service.DeadlineDegradesBeforeRefusing: graceful degradation — a
//     tight deadline buys fewer rounds, an explicit degraded flag, and a
//     widened CI; an impossible one gets DEADLINE_EXCEEDED, not a lie.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/jsonlite.hpp"
#include "obs/metrics.hpp"
#include "rng/prng.hpp"
#include "runtime/cancel.hpp"
#include "runtime/json.hpp"
#include "runtime/trial_runner.hpp"
#include "service/cache.hpp"
#include "service/chaos.hpp"
#include "service/errors.hpp"
#include "service/flight.hpp"
#include "service/shard.hpp"
#include "service/frame.hpp"
#include "service/messages.hpp"
#include "service/registry.hpp"
#include "service/retry.hpp"
#include "service/service.hpp"
#include "sim/faults.hpp"

namespace {

using namespace pet;

[[nodiscard]] svc::Frame test_frame(std::uint16_t command,
                                    std::vector<std::uint8_t> payload) {
  svc::Frame frame;
  frame.command = command;
  frame.payload = std::move(payload);
  return frame;
}

[[nodiscard]] bool frames_equal(const svc::Frame& a, const svc::Frame& b) {
  return a.ver_major == b.ver_major && a.ver_minor == b.ver_minor &&
         a.command == b.command && a.status == b.status &&
         a.payload == b.payload;
}

/// Drain every decodable frame/error out of a decoder.
struct DrainResult {
  std::vector<svc::Frame> frames;
  std::vector<svc::DecodeStatus> errors;
};

[[nodiscard]] DrainResult drain(svc::Decoder& decoder) {
  DrainResult result;
  svc::Frame frame;
  for (;;) {
    const svc::DecodeStatus status = decoder.next(frame);
    if (status == svc::DecodeStatus::kNeedMoreData) break;
    if (status == svc::DecodeStatus::kFrame) {
      result.frames.push_back(frame);
    } else {
      result.errors.push_back(status);
    }
  }
  return result;
}

// --- frame codec -----------------------------------------------------------

TEST(FrameCodec, EncodeDecodeIdentity) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{7}, std::size_t{1024}}) {
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    svc::Frame original = test_frame(4, payload);
    original.status = 7;

    svc::Decoder decoder;
    decoder.feed(svc::encode_frame(original));
    svc::Frame decoded;
    ASSERT_EQ(decoder.next(decoded), svc::DecodeStatus::kFrame);
    EXPECT_TRUE(frames_equal(original, decoded));
    EXPECT_EQ(decoder.pending(), 0u);
    EXPECT_EQ(decoder.next(decoded), svc::DecodeStatus::kNeedMoreData);
  }
}

TEST(FrameCodec, EncodeIntoAppendsAfterPrefixAndMatchesEncode) {
  // On an empty buffer encode_frame_into is encode_frame; on a non-empty
  // one it keeps the prefix and appends exactly the same bytes, so a
  // session can coalesce replies into one reused buffer.
  const std::vector<std::uint8_t> prefix = {0xDE, 0xAD, svc::kSof, 0x00};
  std::vector<std::uint8_t> coalesced;
  std::vector<std::uint8_t> concatenated;
  for (const std::size_t size : {std::size_t{0}, std::size_t{5},
                                 std::size_t{1024}}) {
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    svc::Frame frame = test_frame(4, payload);
    frame.status = 3;
    const std::vector<std::uint8_t> fresh = svc::encode_frame(frame);

    std::vector<std::uint8_t> empty;
    svc::encode_frame_into(empty, frame);
    EXPECT_EQ(empty, fresh);

    std::vector<std::uint8_t> appended = prefix;
    svc::encode_frame_into(appended, frame);
    ASSERT_EQ(appended.size(), prefix.size() + fresh.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), appended.begin()));
    EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(),
                           appended.begin() +
                               static_cast<std::ptrdiff_t>(prefix.size())));

    svc::encode_frame_into(coalesced, frame);
    concatenated.insert(concatenated.end(), fresh.begin(), fresh.end());
  }
  EXPECT_EQ(coalesced, concatenated);
  svc::Decoder decoder;
  decoder.feed(coalesced);
  const DrainResult result = drain(decoder);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.frames.size(), 3u);
}

TEST(FrameCodec, ByteAtATimeFeedingNeedsDataUntilComplete) {
  const svc::Frame original = test_frame(2, {1, 2, 3, 4});
  const std::vector<std::uint8_t> bytes = svc::encode_frame(original);
  svc::Decoder decoder;
  svc::Frame decoded;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    ASSERT_EQ(decoder.next(decoded), svc::DecodeStatus::kNeedMoreData)
        << "frame completed " << (bytes.size() - 1 - i) << " bytes early";
  }
  decoder.feed(&bytes.back(), 1);
  ASSERT_EQ(decoder.next(decoded), svc::DecodeStatus::kFrame);
  EXPECT_TRUE(frames_equal(original, decoded));
}

TEST(FrameCodec, GarbagePrefixCostsOneTypedErrorThenResyncs) {
  // A run of non-SOF garbage is reported once (kBadSof), not per byte.
  std::vector<std::uint8_t> bytes = {0x00, 0x13, 0x37, 0x42, 0x00};
  const svc::Frame original = test_frame(1, {9});
  const std::vector<std::uint8_t> encoded = svc::encode_frame(original);
  bytes.insert(bytes.end(), encoded.begin(), encoded.end());

  svc::Decoder decoder;
  decoder.feed(bytes);
  const DrainResult result = drain(decoder);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0], svc::DecodeStatus::kBadSof);
  ASSERT_EQ(result.frames.size(), 1u);
  EXPECT_TRUE(frames_equal(original, result.frames[0]));
}

TEST(FrameCodec, CorruptHeaderLoseOnlyThatFrame) {
  const svc::Frame first = test_frame(3, {1, 1, 2, 3, 5, 8});
  const svc::Frame second = test_frame(4, {42});
  std::vector<std::uint8_t> bytes = svc::encode_frame(first);
  bytes[3] ^= 0x10;  // command byte: header LRC must catch it
  const std::vector<std::uint8_t> tail = svc::encode_frame(second);
  bytes.insert(bytes.end(), tail.begin(), tail.end());

  svc::Decoder decoder;
  decoder.feed(bytes);
  const DrainResult result = drain(decoder);
  ASSERT_GE(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0], svc::DecodeStatus::kBadHeaderLrc);
  for (const svc::DecodeStatus status : result.errors) {
    EXPECT_TRUE(svc::is_decode_error(status));
  }
  ASSERT_EQ(result.frames.size(), 1u);
  EXPECT_TRUE(frames_equal(second, result.frames[0]));
}

TEST(FrameCodec, CorruptPayloadDropsFrameKeepsStream) {
  const svc::Frame first = test_frame(4, {10, 20, 30, 40});
  const svc::Frame second = test_frame(5, {});
  std::vector<std::uint8_t> bytes = svc::encode_frame(first);
  bytes[svc::kHeaderSize + 1] ^= 0x01;  // payload bit: payload LRC catches it
  const std::vector<std::uint8_t> tail = svc::encode_frame(second);
  bytes.insert(bytes.end(), tail.begin(), tail.end());

  svc::Decoder decoder;
  decoder.feed(bytes);
  const DrainResult result = drain(decoder);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0], svc::DecodeStatus::kBadPayloadLrc);
  ASSERT_EQ(result.frames.size(), 1u);
  EXPECT_TRUE(frames_equal(second, result.frames[0]));
}

TEST(FrameCodec, OversizedLengthFieldRejectedNotBuffered) {
  // Hand-build a header whose length field demands kMaxPayload + 1 bytes
  // with a *valid* header LRC: the only defense is the explicit size cap.
  std::vector<std::uint8_t> bytes(svc::kHeaderSize);
  bytes[0] = svc::kSof;
  bytes[1] = svc::kProtocolMajor;
  bytes[2] = svc::kProtocolMinor;
  bytes[3] = 1;  // command lo
  const std::uint32_t huge = svc::kMaxPayload + 1;
  bytes[7] = static_cast<std::uint8_t>(huge & 0xFF);
  bytes[8] = static_cast<std::uint8_t>((huge >> 8) & 0xFF);
  bytes[9] = static_cast<std::uint8_t>((huge >> 16) & 0xFF);
  bytes[10] = static_cast<std::uint8_t>((huge >> 24) & 0xFF);
  bytes[11] = svc::lrc(bytes.data(), svc::kHeaderSize - 1);

  svc::Decoder decoder;
  decoder.feed(bytes);
  svc::Frame frame;
  EXPECT_EQ(decoder.next(frame), svc::DecodeStatus::kOversized);
  // The decoder must not be waiting to buffer a gigabyte.
  EXPECT_LT(decoder.pending(), bytes.size());
}

TEST(FrameCodec, VersionSkewIsAServiceDecisionNotADecodeError) {
  // Framing is version-agnostic (resync must work on frames from any
  // speaker); semver policy lives in EstimationService::handle.
  svc::Frame skewed = test_frame(1, {});
  skewed.ver_major = svc::kProtocolMajor + 1;
  svc::Decoder decoder;
  decoder.feed(svc::encode_frame(skewed));
  svc::Frame decoded;
  ASSERT_EQ(decoder.next(decoded), svc::DecodeStatus::kFrame);

  svc::EstimationService service;
  const svc::Frame rejected = service.handle(decoded);
  EXPECT_EQ(static_cast<svc::StatusCode>(rejected.status),
            svc::StatusCode::kIncompatibleVersion);
  EXPECT_FALSE(svc::error_detail(rejected).empty());

  // A higher *minor* version is forward-compatible and must be served.
  svc::Frame minor_skew = test_frame(1, {});
  minor_skew.ver_minor = svc::kProtocolMinor + 3;
  const svc::Frame served = service.handle(minor_skew);
  EXPECT_EQ(static_cast<svc::StatusCode>(served.status),
            svc::StatusCode::kOk);
}

TEST(FrameCodec, FuzzRandomBytesNeverCrashOrBufferUnbounded) {
  // Pure adversarial input: the decoder must only ever emit typed statuses,
  // keep bounded memory, and make progress.  ASan/UBSan in the sanitizer CI
  // job turn any lurking UB into a test failure.
  rng::Xoshiro256ss rng(0xF0220u);
  svc::Decoder decoder;
  svc::Frame frame;
  std::size_t total_outcomes = 0;
  for (int chunk = 0; chunk < 200; ++chunk) {
    std::vector<std::uint8_t> bytes(1 + (rng() % 257));
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
    decoder.feed(bytes);
    for (;;) {
      const svc::DecodeStatus status = decoder.next(frame);
      ++total_outcomes;
      ASSERT_LT(total_outcomes, 1u << 20) << "decoder livelocked";
      if (status == svc::DecodeStatus::kNeedMoreData) break;
      if (status == svc::DecodeStatus::kFrame) {
        EXPECT_LE(frame.payload.size(), svc::kMaxPayload);
      } else {
        EXPECT_TRUE(svc::is_decode_error(status));
      }
    }
    EXPECT_LE(decoder.pending(),
              std::size_t{svc::kMaxPayload} + svc::kHeaderSize + 1);
  }
}

TEST(FrameCodec, FuzzSingleBitFlipNeverYieldsACorruptedFrame) {
  // An LRC never absorbs a single bit flip (the sum changes by ±2^k mod
  // 256 != 0), so any frame the decoder does emit from a flipped stream
  // must be byte-exact one of the originals — corruption is detected or
  // skipped, never silently delivered.
  rng::Xoshiro256ss rng(0xB17F11Fu);
  for (int round = 0; round < 64; ++round) {
    std::vector<svc::Frame> originals;
    std::vector<std::uint8_t> stream;
    for (std::uint16_t i = 0; i < 8; ++i) {
      svc::Frame frame = test_frame(
          static_cast<std::uint16_t>(i + 1),
          {static_cast<std::uint8_t>(round), static_cast<std::uint8_t>(i)});
      const std::vector<std::uint8_t> encoded = svc::encode_frame(frame);
      stream.insert(stream.end(), encoded.begin(), encoded.end());
      originals.push_back(std::move(frame));
    }
    stream[rng() % stream.size()] ^=
        static_cast<std::uint8_t>(1u << (rng() % 8));

    svc::Decoder decoder;
    decoder.feed(stream);
    const DrainResult result = drain(decoder);
    EXPECT_LT(result.frames.size(), originals.size());
    for (const svc::Frame& decoded : result.frames) {
      const bool matches_an_original =
          std::any_of(originals.begin(), originals.end(),
                      [&](const svc::Frame& original) {
                        return frames_equal(original, decoded);
                      });
      EXPECT_TRUE(matches_an_original)
          << "decoder delivered a frame that was never sent";
    }
  }
}

// --- message schemas -------------------------------------------------------

TEST(Messages, RoundTripEveryMessage) {
  svc::EstimateRequest estimate;
  estimate.population_id = 77;
  estimate.seed = 0xAB12;
  estimate.epsilon = 0.07;
  estimate.delta = 0.01;
  estimate.deadline_slots = 1234;
  estimate.robust = 0;
  const auto estimate_rt = svc::parse_estimate_request(svc::encode(estimate));
  ASSERT_TRUE(estimate_rt.has_value());
  EXPECT_EQ(estimate_rt->population_id, estimate.population_id);
  EXPECT_EQ(estimate_rt->seed, estimate.seed);
  EXPECT_DOUBLE_EQ(estimate_rt->epsilon, estimate.epsilon);
  EXPECT_DOUBLE_EQ(estimate_rt->delta, estimate.delta);
  EXPECT_EQ(estimate_rt->deadline_slots, estimate.deadline_slots);
  EXPECT_EQ(estimate_rt->robust, estimate.robust);

  svc::EstimateReply reply;
  reply.population_id = 77;
  reply.n_hat = 4987.25;
  reply.ci_lo = 4200.0;
  reply.ci_hi = 5800.0;
  reply.rounds = 31;
  reply.planned_rounds = 40;
  reply.query_slots = 992;
  reply.retries = 2;
  reply.backoff_slots = 24;
  reply.degraded = 1;
  reply.truncated = 1;
  reply.health = 2;
  const auto reply_rt = svc::parse_estimate_reply(svc::encode(reply));
  ASSERT_TRUE(reply_rt.has_value());
  EXPECT_DOUBLE_EQ(reply_rt->n_hat, reply.n_hat);
  EXPECT_DOUBLE_EQ(reply_rt->ci_lo, reply.ci_lo);
  EXPECT_DOUBLE_EQ(reply_rt->ci_hi, reply.ci_hi);
  EXPECT_EQ(reply_rt->rounds, reply.rounds);
  EXPECT_EQ(reply_rt->planned_rounds, reply.planned_rounds);
  EXPECT_EQ(reply_rt->query_slots, reply.query_slots);
  EXPECT_EQ(reply_rt->retries, reply.retries);
  EXPECT_EQ(reply_rt->backoff_slots, reply.backoff_slots);
  EXPECT_EQ(reply_rt->degraded, reply.degraded);
  EXPECT_EQ(reply_rt->truncated, reply.truncated);
  EXPECT_EQ(reply_rt->health, reply.health);

  svc::MonitorReply monitor;
  monitor.populations = 1;
  monitor.accepted = 9;
  monitor.shed = 3;
  monitor.malformed_frames = 2;
  const auto monitor_rt = svc::parse_monitor_reply(svc::encode(monitor));
  ASSERT_TRUE(monitor_rt.has_value());
  EXPECT_EQ(monitor_rt->populations, monitor.populations);
  EXPECT_EQ(monitor_rt->accepted, monitor.accepted);
  EXPECT_EQ(monitor_rt->shed, monitor.shed);
  EXPECT_EQ(monitor_rt->malformed_frames, monitor.malformed_frames);
}

TEST(Messages, ShortAndOverlongPayloadsAreMalformed) {
  svc::EstimateRequest request;
  std::vector<std::uint8_t> bytes = svc::encode(request);

  std::vector<std::uint8_t> shortened(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(svc::parse_estimate_request(shortened).has_value());

  std::vector<std::uint8_t> overlong = bytes;
  overlong.push_back(0xEE);  // trailing garbage is malformed, not ignored
  EXPECT_FALSE(svc::parse_estimate_request(overlong).has_value());

  EXPECT_FALSE(svc::parse_estimate_request({}).has_value());
  EXPECT_TRUE(svc::parse_estimate_request(bytes).has_value());
}

TEST(Messages, ErrorFramesCarryDetailStrings) {
  const svc::Frame error = svc::make_error(
      svc::CommandId::kEstimate,
      static_cast<std::uint16_t>(svc::StatusCode::kDeadlineExceeded),
      "budget too small");
  EXPECT_EQ(static_cast<svc::StatusCode>(error.status),
            svc::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(svc::error_detail(error), "budget too small");
  EXPECT_TRUE(svc::is_retryable(svc::StatusCode::kResourceExhausted));
  EXPECT_TRUE(svc::is_retryable(svc::StatusCode::kUnavailable));
  EXPECT_FALSE(svc::is_retryable(svc::StatusCode::kInvalidArgument));
}

TEST(Messages, RoundTripObservabilityMessages) {
  svc::MetricsRequest metrics;
  metrics.scope = static_cast<std::uint8_t>(svc::MetricsScope::kPopulation);
  metrics.population_id = 42;
  const auto metrics_rt = svc::parse_metrics_request(svc::encode(metrics));
  ASSERT_TRUE(metrics_rt.has_value());
  EXPECT_EQ(metrics_rt->scope, metrics.scope);
  EXPECT_EQ(metrics_rt->population_id, metrics.population_id);

  // Empty payload = defaults (scope kFull, all populations): the bare
  // `petctl top` request frame.
  const auto default_rt = svc::parse_metrics_request({});
  ASSERT_TRUE(default_rt.has_value());
  EXPECT_EQ(default_rt->scope,
            static_cast<std::uint8_t>(svc::MetricsScope::kFull));

  svc::FlightDumpRequest dump;
  dump.request_id = 0xDEAD;
  dump.max_records = 7;
  const auto dump_rt = svc::parse_flight_dump_request(svc::encode(dump));
  ASSERT_TRUE(dump_rt.has_value());
  EXPECT_EQ(dump_rt->request_id, dump.request_id);
  EXPECT_EQ(dump_rt->max_records, dump.max_records);
  EXPECT_TRUE(svc::parse_flight_dump_request({}).has_value());

  svc::FlightDumpReply reply;
  svc::RequestRecord record;
  record.request_id = 0x1234;
  record.population_id = 9;
  record.command = static_cast<std::uint16_t>(svc::CommandId::kEstimate);
  record.status = static_cast<std::uint16_t>(svc::StatusCode::kOk);
  record.degrade_mask = svc::kDegradeTruncated | svc::kDegradeFitShort;
  record.planned_rounds = 40;
  record.rounds = 31;
  record.retries = 2;
  record.backoff_slots = 24;
  record.query_slots = 992;
  record.latency_slots = 1016;
  record.queue_us = 120;
  record.handle_us = 800;
  record.shard = 5;      // v1.2 stamps: shard id + cache-hit bit
  record.cache_hit = 1;
  reply.records.push_back(record);
  const auto reply_rt = svc::parse_flight_dump_reply(svc::encode(reply));
  ASSERT_TRUE(reply_rt.has_value());
  ASSERT_EQ(reply_rt->records.size(), 1u);
  EXPECT_EQ(reply_rt->records[0].request_id, record.request_id);
  EXPECT_EQ(reply_rt->records[0].degrade_mask, record.degrade_mask);
  EXPECT_EQ(reply_rt->records[0].latency_slots, record.latency_slots);
  EXPECT_EQ(reply_rt->records[0].queue_us, record.queue_us);
  EXPECT_EQ(reply_rt->records[0].handle_us, record.handle_us);
  EXPECT_EQ(reply_rt->records[0].shard, record.shard);
  EXPECT_EQ(reply_rt->records[0].cache_hit, record.cache_hit);

  // Truncated record arrays are malformed, not partially parsed.
  std::vector<std::uint8_t> truncated = svc::encode(reply);
  truncated.pop_back();
  EXPECT_FALSE(svc::parse_flight_dump_reply(truncated).has_value());
}

TEST(Messages, MonitorReplyWireLayoutFrozenForOldClients) {
  // Semver story: minor 1 added commands only; minor 2 widened flight-dump
  // records (shard id + flags) — every v1.0 payload layout is still frozen.
  // This inline parser IS the v1.0 client; if MonitorReply ever grows a
  // field, this test fails before any deployed client does.
  EXPECT_EQ(svc::kProtocolMinor, 2);
  svc::MonitorReply monitor;
  monitor.populations = 3;
  monitor.inflight = 1;
  monitor.accepted = 100;
  monitor.completed = 90;
  monitor.shed = 4;
  monitor.degraded = 7;
  monitor.deadline_misses = 2;
  monitor.retries = 11;
  monitor.malformed_frames = 5;
  const std::vector<std::uint8_t> bytes = svc::encode(monitor);
  ASSERT_EQ(bytes.size(), 72u) << "MonitorReply is frozen at 9 x u64";
  const auto read_u64 = [&](std::size_t index) {
    std::uint64_t value = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      value |= static_cast<std::uint64_t>(bytes[index * 8 + b]) << (8 * b);
    }
    return value;
  };
  EXPECT_EQ(read_u64(0), monitor.populations);
  EXPECT_EQ(read_u64(1), monitor.inflight);
  EXPECT_EQ(read_u64(2), monitor.accepted);
  EXPECT_EQ(read_u64(3), monitor.completed);
  EXPECT_EQ(read_u64(4), monitor.shed);
  EXPECT_EQ(read_u64(5), monitor.degraded);
  EXPECT_EQ(read_u64(6), monitor.deadline_misses);
  EXPECT_EQ(read_u64(7), monitor.retries);
  EXPECT_EQ(read_u64(8), monitor.malformed_frames);
}

// --- flight recorder -------------------------------------------------------

TEST(Flight, RequestIdIsDeterministicContentAddressedAndNonZero) {
  const svc::Frame a = test_frame(3, {1, 2, 3});
  const svc::Frame b = test_frame(3, {1, 2, 3});
  const svc::Frame c = test_frame(3, {1, 2, 4});
  EXPECT_EQ(svc::derive_request_id(a), svc::derive_request_id(b));
  EXPECT_NE(svc::derive_request_id(a), svc::derive_request_id(c));
  EXPECT_NE(svc::derive_request_id(a), 0u) << "0 is the wildcard filter";
  const std::string rendered = svc::format_request_id(0xABCDull);
  EXPECT_EQ(rendered, "0x000000000000abcd");
}

TEST(Flight, DegradeMaskRendersBitNames) {
  EXPECT_EQ(svc::degrade_mask_to_string(0), "-");
  EXPECT_EQ(svc::degrade_mask_to_string(svc::kDegradeTruncated |
                                        svc::kDegradeFitShort),
            "truncated|fit-short");
  EXPECT_EQ(svc::degrade_mask_to_string(svc::kDegradeShed), "shed");
}

TEST(Flight, RingWrapsKeepingNewestAndCountsLifetime) {
  svc::FlightRecorder recorder(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    svc::RequestRecord record;
    record.request_id = i;
    recorder.record(record);
  }
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u) << "lifetime count, not occupancy";
  const std::vector<svc::RequestRecord> all = recorder.dump(0, 0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front().request_id, 7u);
  EXPECT_EQ(all.back().request_id, 10u);

  // max_records keeps the NEWEST n; the id filter selects exactly.
  const std::vector<svc::RequestRecord> newest = recorder.dump(0, 2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest.front().request_id, 9u);
  const std::vector<svc::RequestRecord> one = recorder.dump(8, 0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front().request_id, 8u);
  EXPECT_TRUE(recorder.dump(99, 0).empty());
}

// --- retry policy ----------------------------------------------------------

TEST(Retry, ZeroJitterLadderIsTheCappedExponential) {
  svc::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff_slots = 8;
  policy.max_backoff_slots = 256;
  policy.jitter = 0.0;
  const std::vector<std::uint64_t> schedule =
      svc::materialize_schedule(policy, 42);
  const std::vector<std::uint64_t> expected = {8, 16, 32, 64, 128, 256, 256};
  EXPECT_EQ(schedule, expected);
}

TEST(Retry, JitteredScheduleIsSeededAndBounded) {
  svc::RetryPolicy policy;  // default jitter 0.5
  const std::vector<std::uint64_t> a = svc::materialize_schedule(policy, 7);
  const std::vector<std::uint64_t> b = svc::materialize_schedule(policy, 7);
  EXPECT_EQ(a, b) << "same seed must give the same schedule";
  EXPECT_NE(a, svc::materialize_schedule(policy, 8))
      << "different seeds should decorrelate synchronized retriers";

  std::uint64_t ladder = policy.base_backoff_slots;
  for (const std::uint64_t wait : a) {
    EXPECT_GE(wait, 1u);
    EXPECT_LE(wait, ladder) << "jitter only shaves, never inflates";
    ladder = std::min(ladder * 2, policy.max_backoff_slots);
  }
}

TEST(Retry, AllowsRetryHonorsMaxAttempts) {
  svc::RetryPolicy policy;
  policy.max_attempts = 3;
  svc::BackoffSchedule schedule(policy, 1);
  EXPECT_TRUE(schedule.allows_retry(1));
  EXPECT_TRUE(schedule.allows_retry(2));
  EXPECT_FALSE(schedule.allows_retry(3));
}

// --- registry --------------------------------------------------------------

TEST(Registry, LifecycleAndTypedShedOutcomes) {
  svc::RegistryConfig config;
  config.max_populations = 2;
  svc::PopulationRegistry registry(config);
  using Outcome = svc::PopulationRegistry::RegisterOutcome;

  EXPECT_EQ(registry.register_population(1, 500, 11), Outcome::kRegistered);
  EXPECT_EQ(registry.register_population(1, 500, 11),
            Outcome::kAlreadyExists);
  EXPECT_EQ(registry.register_population(2, 500, 12), Outcome::kRegistered);
  EXPECT_EQ(registry.register_population(3, 500, 13), Outcome::kFull);
  EXPECT_EQ(registry.register_population(4, config.max_tags_per_population + 1,
                                         14),
            Outcome::kInvalidRequest);
  EXPECT_EQ(registry.size(), 2u);

  const auto entry = registry.find(1);
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->channel, nullptr);
  EXPECT_EQ(entry->channel->tag_count(), 500u);

  // In-flight holders keep an unregistered entry alive; new lookups fail.
  EXPECT_TRUE(registry.unregister_population(1));
  EXPECT_FALSE(registry.unregister_population(1));
  EXPECT_EQ(registry.find(1), nullptr);
  EXPECT_EQ(entry->channel->tag_count(), 500u);
}

// --- estimation service ----------------------------------------------------

namespace service_helpers {

[[nodiscard]] svc::Frame register_frame(std::uint64_t id, std::uint64_t tags,
                                        std::uint64_t seed) {
  svc::RegisterRequest request;
  request.population_id = id;
  request.tag_count = tags;
  request.population_seed = seed;
  return svc::make_request(svc::CommandId::kRegister, svc::encode(request));
}

[[nodiscard]] svc::Frame estimate_frame(std::uint64_t id, std::uint64_t seed,
                                        std::uint64_t deadline_slots = 0,
                                        std::uint8_t robust = 1) {
  svc::EstimateRequest request;
  request.population_id = id;
  request.seed = seed;
  request.deadline_slots = deadline_slots;
  request.robust = robust;
  return svc::make_request(svc::CommandId::kEstimate, svc::encode(request));
}

[[nodiscard]] svc::StatusCode status_of(const svc::Frame& frame) {
  return static_cast<svc::StatusCode>(frame.status);
}

}  // namespace service_helpers

TEST(Service, HappyPathEstimateMeetsContractUndegraded) {
  using namespace service_helpers;
  constexpr std::uint64_t kTags = 2000;
  svc::EstimationService service;
  ASSERT_EQ(status_of(service.handle(register_frame(5, kTags, 99))),
            svc::StatusCode::kOk);

  const svc::Frame response = service.handle(estimate_frame(5, 0xE57));
  ASSERT_EQ(status_of(response), svc::StatusCode::kOk);
  const auto reply = svc::parse_estimate_reply(response.payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->population_id, 5u);
  EXPECT_EQ(reply->degraded, 0u);
  EXPECT_EQ(reply->truncated, 0u);
  EXPECT_EQ(reply->retries, 0u) << "link faults are inert by default";
  EXPECT_EQ(reply->rounds, reply->planned_rounds);
  EXPECT_GT(reply->query_slots, 0u);
  // PET's multiplicative error: n_hat within a generous band around n and
  // inside its own reported interval.
  EXPECT_GT(reply->n_hat, 0.5 * kTags);
  EXPECT_LT(reply->n_hat, 1.5 * kTags);
  EXPECT_LE(reply->ci_lo, reply->n_hat);
  EXPECT_GE(reply->ci_hi, reply->n_hat);

  const svc::Frame monitor =
      service.handle(svc::make_request(svc::CommandId::kMonitor));
  const auto stats = svc::parse_monitor_reply(monitor.payload);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->populations, 1u);
  EXPECT_EQ(stats->degraded, 0u);
}

TEST(Service, TypedErrorsForEveryRefusal) {
  using namespace service_helpers;
  svc::EstimationService service;

  // Unknown population.
  EXPECT_EQ(status_of(service.handle(estimate_frame(404, 1))),
            svc::StatusCode::kNotFound);

  // Invalid (ε, δ).
  svc::EstimateRequest bad;
  bad.population_id = 1;
  bad.epsilon = 1.5;
  EXPECT_EQ(status_of(service.handle(svc::make_request(
                svc::CommandId::kEstimate, svc::encode(bad)))),
            svc::StatusCode::kInvalidArgument);

  // Unknown command id.
  EXPECT_EQ(status_of(service.handle(test_frame(900, {}))),
            svc::StatusCode::kUnknownCommand);

  // Garbage payload.
  const svc::Frame malformed = service.handle(svc::make_request(
      svc::CommandId::kEstimate, {1, 2, 3}));
  EXPECT_EQ(status_of(malformed), svc::StatusCode::kMalformedFrame);
  EXPECT_FALSE(svc::error_detail(malformed).empty());

  // Duplicate registration.
  ASSERT_EQ(status_of(service.handle(register_frame(7, 100, 1))),
            svc::StatusCode::kOk);
  EXPECT_EQ(status_of(service.handle(register_frame(7, 100, 1))),
            svc::StatusCode::kAlreadyExists);

  // Unregister; estimate after it is NOT_FOUND.
  svc::UnregisterRequest unregister;
  unregister.population_id = 7;
  EXPECT_EQ(status_of(service.handle(svc::make_request(
                svc::CommandId::kUnregister, svc::encode(unregister)))),
            svc::StatusCode::kOk);
  EXPECT_EQ(status_of(service.handle(estimate_frame(7, 1))),
            svc::StatusCode::kNotFound);

  EXPECT_GE(service.stats().malformed_frames, 1u);
}

TEST(Service, DeadlineDegradesBeforeRefusing) {
  using namespace service_helpers;
  svc::EstimationService service;
  ASSERT_EQ(status_of(service.handle(register_frame(1, 3000, 17))),
            svc::StatusCode::kOk);

  // Baseline: unlimited budget, full plan.
  const svc::Frame full_response =
      service.handle(estimate_frame(1, 0xD15C));
  ASSERT_EQ(status_of(full_response), svc::StatusCode::kOk);
  const auto full = svc::parse_estimate_reply(full_response.payload);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->degraded, 0u);
  const double full_width =
      (full->ci_hi - full->ci_lo) / (2.0 * full->n_hat);

  // Half the slots the full plan actually consumed: the service must trade
  // rounds for the deadline, flag the reply degraded, and widen the CI.
  const std::uint64_t tight = full->query_slots / 2;
  ASSERT_GT(tight, 0u);
  const svc::Frame tight_response =
      service.handle(estimate_frame(1, 0xD15C, tight));
  ASSERT_EQ(status_of(tight_response), svc::StatusCode::kOk);
  const auto degraded = svc::parse_estimate_reply(tight_response.payload);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->degraded, 1u);
  EXPECT_LT(degraded->rounds, full->rounds);
  EXPECT_EQ(degraded->planned_rounds, full->planned_rounds);
  EXPECT_LT(degraded->query_slots, tight + 1);
  const double degraded_width =
      (degraded->ci_hi - degraded->ci_lo) / (2.0 * degraded->n_hat);
  EXPECT_GT(degraded_width, full_width)
      << "a degraded reply must widen its interval, not pretend";

  // A budget that cannot fit one round is refused with the typed status.
  const svc::Frame refused = service.handle(estimate_frame(1, 0xD15C, 3));
  EXPECT_EQ(status_of(refused), svc::StatusCode::kDeadlineExceeded);

  const svc::MonitorReply stats = service.stats();
  EXPECT_GE(stats.degraded, 1u);
  EXPECT_GE(stats.deadline_misses, 1u);
}

TEST(Service, RetryScheduleByteIdenticalAcrossThreads) {
  // The ISSUE.md determinism clause: identical seeded transient-fault
  // streams => byte-identical retry schedules and responses whether the
  // service runs 1, 2, or 8 workers.  Compare the *encoded frames*: any
  // drift in estimate, CI, retries, backoff, or flags shows up.
  using namespace service_helpers;
  constexpr std::uint64_t kRequests = 24;

  const auto run = [&](unsigned workers) {
    svc::ServiceConfig config;
    config.worker_threads = workers;
    config.link_faults.reply_loss_prob = 0.4;  // frequent transient faults
    svc::EstimationService service(config);
    const svc::Frame registered =
        service.handle(register_frame(9, 800, 0xFEED));
    EXPECT_EQ(status_of(registered), svc::StatusCode::kOk);

    std::vector<std::future<svc::Frame>> pending;
    pending.reserve(kRequests);
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      pending.push_back(service.submit(
          estimate_frame(9, rng::derive_seed(0xE57, i), /*deadline=*/0,
                         /*robust=*/static_cast<std::uint8_t>(i % 2))));
    }
    std::vector<std::vector<std::uint8_t>> responses;
    responses.reserve(kRequests);
    for (std::future<svc::Frame>& future : pending) {
      responses.push_back(svc::encode_frame(future.get()));
    }
    return responses;
  };

  const std::vector<std::vector<std::uint8_t>> t1 = run(1);
  const std::vector<std::vector<std::uint8_t>> t2 = run(2);
  const std::vector<std::vector<std::uint8_t>> t8 = run(8);
  ASSERT_EQ(t1.size(), kRequests);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(t1[i], t2[i]) << "request " << i << " drifted at 2 workers";
    EXPECT_EQ(t1[i], t8[i]) << "request " << i << " drifted at 8 workers";
  }

  // The fault stream actually exercised the retry machinery: with loss 0.4
  // some requests retried and some did not.
  bool some_retried = false, some_clean = false;
  for (const std::vector<std::uint8_t>& bytes : t1) {
    svc::Decoder decoder;
    decoder.feed(bytes);
    svc::Frame frame;
    ASSERT_EQ(decoder.next(frame), svc::DecodeStatus::kFrame);
    if (static_cast<svc::StatusCode>(frame.status) != svc::StatusCode::kOk) {
      continue;  // retry budget exhausted: typed UNAVAILABLE, also replayed
    }
    const auto reply = svc::parse_estimate_reply(frame.payload);
    ASSERT_TRUE(reply.has_value());
    (reply->retries > 0 ? some_retried : some_clean) = true;
    if (reply->retries > 0) EXPECT_GT(reply->backoff_slots, 0u);
  }
  EXPECT_TRUE(some_retried);
  EXPECT_TRUE(some_clean);
}

TEST(Service, OverloadShedsWithTypedFramesControlPlaneSurvives) {
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.max_inflight = 4;
  config.worker_threads = 2;
  svc::EstimationService service(config);
  ASSERT_EQ(status_of(service.handle(register_frame(1, 200, 3))),
            svc::StatusCode::kOk);

  {
    // Occupy every admission slot; the next estimate must shed immediately
    // with RESOURCE_EXHAUSTED while ping (control plane) still answers.
    svc::EstimationService::InflightHold hold(service, config.max_inflight);
    const svc::Frame shed = service.submit(estimate_frame(1, 1)).get();
    EXPECT_EQ(status_of(shed), svc::StatusCode::kResourceExhausted);
    EXPECT_TRUE(svc::is_retryable(status_of(shed)));

    const svc::Frame pong =
        service.submit(svc::make_request(svc::CommandId::kPing)).get();
    EXPECT_EQ(status_of(pong), svc::StatusCode::kOk);
  }

  // Capacity released: the same request is served.
  EXPECT_EQ(status_of(service.submit(estimate_frame(1, 1)).get()),
            svc::StatusCode::kOk);
  EXPECT_GE(service.stats().shed, 1u);
}

TEST(Service, ShutdownRefusesNewWorkWithTypedStatus) {
  using namespace service_helpers;
  svc::EstimationService service;
  ASSERT_EQ(status_of(service.handle(register_frame(1, 200, 3))),
            svc::StatusCode::kOk);
  service.begin_shutdown();
  EXPECT_TRUE(service.draining());
  const svc::Frame refused = service.submit(estimate_frame(1, 1)).get();
  EXPECT_EQ(status_of(refused), svc::StatusCode::kShuttingDown);
  EXPECT_TRUE(svc::is_retryable(status_of(refused)));
}

// --- population-affine shards ----------------------------------------------

TEST(Shard, RoutingIsStableSpreadsAndClampsDerivedCounts) {
  // shard_of is a pure function of (id, count): stable across calls, and
  // the SplitMix64 mix spreads even sequential id schemes over every shard.
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(svc::shard_of(id, 1), 0u);
    EXPECT_EQ(svc::shard_of(id, 8), svc::shard_of(id, 8));
    EXPECT_LT(svc::shard_of(id, 8), 8u);
  }
  std::vector<std::uint64_t> occupancy(8, 0);
  for (std::uint64_t id = 0; id < 256; ++id) ++occupancy[svc::shard_of(id, 8)];
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_GT(occupancy[s], 0u) << "shard " << s << " never routed";
  }

  EXPECT_EQ(svc::derive_shard_count(0), 1u);
  EXPECT_EQ(svc::derive_shard_count(1), 1u);
  EXPECT_EQ(svc::derive_shard_count(4), 2u);
  EXPECT_EQ(svc::derive_shard_count(8), 4u);
  EXPECT_EQ(svc::derive_shard_count(64), 8u) << "derived count caps at 8";
}

TEST(Service, ResponsesByteIdenticalAcrossShardCountsAndCacheModes) {
  // The PR's determinism clause: the exact same request script produces
  // byte-identical response frames at shards 1, 2, and 8, with the result
  // cache off or on.  Repeated seeds make the cached runs actually serve
  // hits, so the comparison proves a hit returns the exact bytes the miss
  // path would have computed.
  using namespace service_helpers;
  constexpr std::uint64_t kRequests = 24;

  const auto run = [&](unsigned shards, std::size_t cache_entries) {
    svc::ServiceConfig config;
    config.worker_threads = 4;
    config.shards = shards;
    config.cache_entries = cache_entries;
    config.link_faults.reply_loss_prob = 0.3;
    svc::EstimationService service(config);
    EXPECT_EQ(status_of(service.handle(register_frame(11, 600, 0xFEED))),
              svc::StatusCode::kOk);
    EXPECT_EQ(status_of(service.handle(register_frame(12, 400, 0xFEE0))),
              svc::StatusCode::kOk);
    EXPECT_EQ(service.shard_count(), shards);

    std::vector<std::future<svc::Frame>> pending;
    pending.reserve(kRequests);
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      // Seeds repeat (i % 6) so cached runs get hits; a sprinkling of
      // tight deadlines exercises the degraded paths too.
      pending.push_back(service.submit(
          estimate_frame(11 + (i & 1), rng::derive_seed(0xCAFE, i % 6),
                         (i % 4 == 0) ? 80 : 0)));
    }
    std::vector<std::vector<std::uint8_t>> responses;
    responses.reserve(kRequests);
    for (std::future<svc::Frame>& future : pending) {
      responses.push_back(svc::encode_frame(future.get()));
    }
    return responses;
  };

  const std::vector<std::vector<std::uint8_t>> base = run(1, 0);
  ASSERT_EQ(base.size(), kRequests);
  for (const unsigned shards : {1u, 2u, 8u}) {
    for (const std::size_t cache_entries : {std::size_t{0}, std::size_t{256}}) {
      if (shards == 1 && cache_entries == 0) continue;
      const std::vector<std::vector<std::uint8_t>> other =
          run(shards, cache_entries);
      for (std::uint64_t i = 0; i < kRequests; ++i) {
        EXPECT_EQ(base[i], other[i])
            << "request " << i << " drifted at shards=" << shards
            << " cache_entries=" << cache_entries;
      }
    }
  }
}

TEST(Service, PerShardAdmissionIsolatesColdPopulationFromHotNeighbor) {
  // The tentpole's isolation claim in miniature: saturating one
  // population's shard budget sheds that population only — a population on
  // a different shard is still admitted, and the shed is charged to the hot
  // shard's counter.
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.shards = 4;
  config.worker_threads = 4;
  config.max_inflight = 8;  // 2 admission slots per shard
  svc::EstimationService service(config);
  ASSERT_EQ(service.shards().max_inflight_per_shard(), 2u);

  const std::uint64_t hot = 1;
  const unsigned hot_shard = svc::shard_of(hot, config.shards);
  std::uint64_t cold = 2;
  while (svc::shard_of(cold, config.shards) == hot_shard) ++cold;
  ASSERT_EQ(status_of(service.handle(register_frame(hot, 200, 3))),
            svc::StatusCode::kOk);
  ASSERT_EQ(status_of(service.handle(register_frame(cold, 200, 4))),
            svc::StatusCode::kOk);

  {
    svc::EstimationService::InflightHold hold(
        service, service.shards().max_inflight_per_shard(), hot);
    const svc::Frame shed = service.submit(estimate_frame(hot, 1)).get();
    EXPECT_EQ(status_of(shed), svc::StatusCode::kResourceExhausted);
    EXPECT_EQ(status_of(service.submit(estimate_frame(cold, 1)).get()),
              svc::StatusCode::kOk)
        << "a hot neighbor must not consume the cold population's budget";
  }
  // Budget released: the hot population is served again, and the shed was
  // charged to its shard.
  EXPECT_EQ(status_of(service.submit(estimate_frame(hot, 1)).get()),
            svc::StatusCode::kOk);
  EXPECT_GE(service.shards().shed(hot_shard), 1u);
}

// --- result cache -----------------------------------------------------------

TEST(Cache, EvictionBoundsEntriesAndBytesUnderChurn) {
  // The LRU honors BOTH bounds while distinct keys churn through, and an
  // entry larger than the byte budget is refused outright rather than
  // evicting the world for nothing.
  svc::ResultCacheConfig config;
  config.max_entries = 8;
  config.max_bytes = 4096;
  svc::ResultCache cache(config);
  ASSERT_TRUE(cache.enabled());

  const std::vector<std::uint8_t> payload(100, 0xAB);
  svc::ResultCache::Replay replay;
  for (std::uint64_t i = 0; i < 100; ++i) {
    svc::ResultCache::Key key;
    key.epoch = 1;
    key.population_id = i;
    key.seed = i * 17;
    (void)cache.insert(key, payload, replay);
    const svc::ResultCacheStats stats = cache.stats();
    EXPECT_LE(stats.entries, config.max_entries);
    EXPECT_LE(stats.bytes, config.max_bytes);
  }
  const svc::ResultCacheStats churned = cache.stats();
  EXPECT_EQ(churned.entries, config.max_entries);
  EXPECT_EQ(churned.evictions, 100u - config.max_entries);

  // Only the newest max_entries keys survive, oldest-first eviction.
  std::vector<std::uint8_t> out;
  svc::ResultCache::Replay out_replay;
  svc::ResultCache::Key probe;
  probe.epoch = 1;
  probe.population_id = 0;
  probe.seed = 0;
  EXPECT_FALSE(cache.lookup(probe, out, out_replay));
  probe.population_id = 99;
  probe.seed = 99 * 17;
  EXPECT_TRUE(cache.lookup(probe, out, out_replay));
  EXPECT_EQ(out, payload);

  // A payload the byte budget can never hold is not cached at all.
  const std::vector<std::uint8_t> huge(config.max_bytes + 1, 0xCD);
  svc::ResultCache::Key huge_key;
  huge_key.epoch = 2;
  (void)cache.insert(huge_key, huge, replay);
  EXPECT_FALSE(cache.lookup(huge_key, out, out_replay));
  EXPECT_LE(cache.stats().bytes, config.max_bytes);
}

TEST(Service, CacheHitReplaysFoldsAndReturnsIdenticalPayload) {
  // A hit must be indistinguishable in every fold-derived surface: same
  // payload bytes, same per-population charge (ok/rounds/slots), plus the
  // explicit hit counters and the flight record's cache-hit stamp.
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.cache_entries = 64;
  svc::EstimationService service(config);
  ASSERT_EQ(status_of(service.handle(register_frame(5, 500, 42))),
            svc::StatusCode::kOk);

  const svc::Frame request = estimate_frame(5, 0xBEEF);
  const svc::Frame miss = service.handle(request);
  ASSERT_EQ(status_of(miss), svc::StatusCode::kOk);
  const svc::Frame hit = service.handle(request);
  ASSERT_EQ(status_of(hit), svc::StatusCode::kOk);
  EXPECT_EQ(miss.payload, hit.payload)
      << "a cache hit must return the exact bytes of the original reply";

  const svc::ResultCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  // Fold replay: both requests charged identically, so totals are exactly
  // twice the single-request charge and the hit was counted.
  const auto reply = svc::parse_estimate_reply(miss.payload);
  ASSERT_TRUE(reply.has_value());
  const auto entry = service.registry().find(5);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->stats.ok.load(), 2u);
  EXPECT_EQ(entry->stats.cache_hits.load(), 1u);
  EXPECT_EQ(entry->stats.rounds.load(), 2 * reply->rounds);
  EXPECT_EQ(entry->stats.query_slots.load(), 2 * reply->query_slots);

#if PET_OBS_COMPILED
  // The newest flight record for a request id carries the hit bit and every
  // deterministic field of the miss's record.  The second request's budget
  // cannot fit the plan, so its records carry a nonzero degrade mask.
  const auto expect_hit_record_matches_miss = [&](const svc::Frame& req,
                                                  bool degraded) {
    const std::vector<svc::RequestRecord> records =
        service.flight().dump(svc::derive_request_id(req));
    ASSERT_EQ(records.size(), 2u);
    const svc::RequestRecord& first = records[0];
    const svc::RequestRecord& second = records[1];
    EXPECT_EQ(first.cache_hit, 0u);
    EXPECT_EQ(second.cache_hit, 1u);
    EXPECT_EQ(second.planned_rounds, first.planned_rounds);
    EXPECT_EQ(second.rounds, first.rounds);
    EXPECT_EQ(second.retries, first.retries);
    EXPECT_EQ(second.backoff_slots, first.backoff_slots);
    EXPECT_EQ(second.query_slots, first.query_slots);
    EXPECT_EQ(second.latency_slots, first.latency_slots);
    EXPECT_EQ(second.degrade_mask, first.degrade_mask);
    EXPECT_EQ(second.status, first.status);
    EXPECT_EQ(first.degrade_mask != 0, degraded);
  };
  expect_hit_record_matches_miss(request, false);

  const svc::Frame short_request = estimate_frame(5, 0xD1E, 3000);
  const svc::Frame short_miss = service.handle(short_request);
  ASSERT_EQ(status_of(short_miss), svc::StatusCode::kOk);
  EXPECT_EQ(service.handle(short_request).payload, short_miss.payload);
  expect_hit_record_matches_miss(short_request, true);
#endif
}

TEST(Service, CacheInvalidatedByReRegisterViaEpochKeying) {
  // Unregister + re-register mints a fresh epoch, so a request that hit
  // before can never be served the previous population's bytes — even when
  // the new registration looks identical.
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.cache_entries = 64;
  svc::EstimationService service(config);
  ASSERT_EQ(status_of(service.handle(register_frame(7, 300, 9))),
            svc::StatusCode::kOk);
  ASSERT_EQ(status_of(service.handle(estimate_frame(7, 0x5EED))),
            svc::StatusCode::kOk);
  ASSERT_EQ(status_of(service.handle(estimate_frame(7, 0x5EED))),
            svc::StatusCode::kOk);
  EXPECT_EQ(service.cache_stats().hits, 1u);

  svc::UnregisterRequest unregister;
  unregister.population_id = 7;
  ASSERT_EQ(status_of(service.handle(svc::make_request(
                svc::CommandId::kUnregister, svc::encode(unregister)))),
            svc::StatusCode::kOk);
  ASSERT_EQ(status_of(service.handle(register_frame(7, 300, 9))),
            svc::StatusCode::kOk);

  // Same id, same tags, same seed — but a new epoch: must miss.
  ASSERT_EQ(status_of(service.handle(estimate_frame(7, 0x5EED))),
            svc::StatusCode::kOk);
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.cache_stats().misses, 2u);
  // And the fresh entry is hittable under the new epoch.
  ASSERT_EQ(status_of(service.handle(estimate_frame(7, 0x5EED))),
            svc::StatusCode::kOk);
  EXPECT_EQ(service.cache_stats().hits, 2u);
}

TEST(Service, ConcurrentRegisterUnregisterVsEstimatesUnderSharding) {
  // TSan payload (the service label runs under -fsanitize=thread in CI):
  // estimates racing register/unregister churn across 4 shards with the
  // cache on must only ever produce typed outcomes — the epoch-keyed cache
  // and sliced registry have no window where a stale entry or a torn map
  // is observable.
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.shards = 4;
  config.worker_threads = 4;
  config.cache_entries = 64;
  svc::EstimationService service(config);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    ASSERT_EQ(status_of(service.handle(register_frame(id, 60, id))),
              svc::StatusCode::kOk);
  }

  // The churn goes through submit(), so its registrations run on this
  // thread inline, racing the clients' inline cache hits.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    svc::UnregisterRequest unregister;
    for (int round = 0; round < 30; ++round) {
      for (std::uint64_t id = 1; id <= 4; ++id) {
        unregister.population_id = id;
        (void)service
            .submit(svc::make_request(svc::CommandId::kUnregister,
                                      svc::encode(unregister)))
            .get();
        (void)service
            .submit(register_frame(
                id, 60 + 10 * (round % 3),
                rng::derive_seed(id, static_cast<std::uint64_t>(round))))
            .get();
      }
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const svc::Frame response =
            service
                .submit(estimate_frame(1 + (i % 4),
                                       rng::derive_seed(c, i % 8),
                                       /*deadline_slots=*/0, /*robust=*/0))
                .get();
        const svc::StatusCode status = status_of(response);
        EXPECT_TRUE(status == svc::StatusCode::kOk ||
                    status == svc::StatusCode::kNotFound)
            << "unexpected status " << static_cast<int>(status);
        ++i;
      }
    });
  }
  churn.join();
  for (std::thread& client : clients) client.join();

  // The run exercised both planes; every surviving population still serves.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_EQ(status_of(service.handle(estimate_frame(id, 1, 0, 0))),
              svc::StatusCode::kOk);
  }
}

// --- inline answering ------------------------------------------------------

TEST(ServiceInline, OnlyCacheMissesReachThePool) {
  // submit() hands a request to its shard's pool only when the estimator
  // must run: an estimate that found its population and missed the cache.
  // Registrations, the control plane, cache hits and estimates answered by
  // a typed error are answered on the calling thread, so their futures are
  // ready when submit() returns.
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.worker_threads = 2;
  config.cache_entries = 64;
  svc::EstimationService service(config);
  const auto pool_tasks = [&service] {
    std::uint64_t total = 0;
    for (const auto& shard : service.shards().snapshot()) {
      total += shard.submitted;
    }
    return total;
  };
  const auto inline_reply = [&service](svc::Frame frame) {
    std::future<svc::Frame> reply = service.submit(std::move(frame));
    EXPECT_EQ(reply.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    return reply.get();
  };

  EXPECT_EQ(status_of(inline_reply(register_frame(1, 500, 0xA1))),
            svc::StatusCode::kOk);
  EXPECT_EQ(status_of(inline_reply(register_frame(2, 300, 0xA2))),
            svc::StatusCode::kOk);
  EXPECT_EQ(status_of(inline_reply(svc::make_request(svc::CommandId::kPing))),
            svc::StatusCode::kOk);
  EXPECT_EQ(
      status_of(inline_reply(svc::make_request(svc::CommandId::kMonitor))),
      svc::StatusCode::kOk);
  (void)inline_reply(svc::make_request(svc::CommandId::kMetrics,
                                       svc::encode(svc::MetricsRequest{})));
  (void)inline_reply(svc::make_request(svc::CommandId::kFlightDump));
  EXPECT_EQ(pool_tasks(), 0u);

  const svc::Frame request = estimate_frame(1, 0xBEEF);
  const svc::Frame miss = service.submit(request).get();
  ASSERT_EQ(status_of(miss), svc::StatusCode::kOk);
  EXPECT_EQ(pool_tasks(), 1u);
  const svc::Frame hit = inline_reply(request);
  ASSERT_EQ(status_of(hit), svc::StatusCode::kOk);
  EXPECT_EQ(hit.payload, miss.payload)
      << "a hit answered inline must carry the miss's exact bytes";

  svc::Frame skewed = estimate_frame(1, 7);
  skewed.ver_major = svc::kProtocolMajor + 1;
  EXPECT_EQ(status_of(inline_reply(skewed)),
            svc::StatusCode::kIncompatibleVersion);
  EXPECT_EQ(status_of(inline_reply(
                svc::make_request(svc::CommandId::kEstimate, {1, 2, 3}))),
            svc::StatusCode::kMalformedFrame);
  svc::EstimateRequest bad_epsilon;
  bad_epsilon.population_id = 1;
  bad_epsilon.epsilon = 1.5;
  EXPECT_EQ(status_of(inline_reply(svc::make_request(
                svc::CommandId::kEstimate, svc::encode(bad_epsilon)))),
            svc::StatusCode::kInvalidArgument);
  EXPECT_EQ(status_of(inline_reply(estimate_frame(404, 1))),
            svc::StatusCode::kNotFound);
  svc::UnregisterRequest unregister;
  unregister.population_id = 2;
  EXPECT_EQ(status_of(inline_reply(svc::make_request(
                svc::CommandId::kUnregister, svc::encode(unregister)))),
            svc::StatusCode::kOk);
  EXPECT_EQ(pool_tasks(), 1u) << "only the miss may reach a shard's pool";

#if PET_OBS_COMPILED
  const std::vector<svc::RequestRecord> records =
      service.flight().dump(svc::derive_request_id(request));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].cache_hit, 0u);
  EXPECT_EQ(records[1].cache_hit, 1u);
  EXPECT_EQ(records[1].queue_us, 0u) << "an inline reply never queues";
#endif

  // One lookup per estimate that found its population: the skewed,
  // malformed, invalid and unknown ones count neither a hit nor a miss.
  const svc::ResultCacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits + cache.misses,
            service.registry().fold_stats().requests);
  const svc::MonitorReply monitor = service.stats();
  EXPECT_EQ(monitor.accepted, 13u);
  EXPECT_EQ(monitor.accepted, monitor.completed);
  EXPECT_EQ(monitor.inflight, 0u);
}

// --- service observability plane -------------------------------------------

#if PET_OBS_COMPILED

TEST(ServiceObs, MetricsDeterministicDomainByteIdenticalAcrossThreads) {
  // The ISSUE acceptance clause: the kDeterministic scope of a kMetrics
  // snapshot — obs counters, slot-unit histograms, and the "service"
  // member — is byte-identical at worker_threads 1, 2, and 8 after an
  // identical seeded request script (deadline misses, retries, degraded
  // responses included).  The payload bytes ARE the comparison.
  using namespace service_helpers;
  const obs::Level saved_level = obs::level();
  obs::set_level(obs::Level::kCounters);

  const auto run = [&](unsigned workers) {
    obs::MetricsRegistry::instance().reset();
    svc::ServiceConfig config;
    config.worker_threads = workers;
    config.link_faults.reply_loss_prob = 0.3;  // exercise the retry plane
    svc::EstimationService service(config);
    EXPECT_EQ(status_of(service.handle(register_frame(3, 900, 0xFEED))),
              svc::StatusCode::kOk);
    EXPECT_EQ(status_of(service.handle(register_frame(4, 700, 0xFEE0))),
              svc::StatusCode::kOk);
    std::vector<std::future<svc::Frame>> pending;
    for (std::uint64_t i = 0; i < 24; ++i) {
      // Mix of unlimited and tight deadlines: clean, degraded, and
      // DEADLINE_EXCEEDED outcomes all feed the per-population cells.
      const std::uint64_t deadline = (i % 3 == 0) ? 60 : 0;
      pending.push_back(service.submit(estimate_frame(
          3 + (i & 1), rng::derive_seed(0x0B5, i), deadline)));
    }
    for (std::future<svc::Frame>& future : pending) (void)future.get();

    svc::MetricsRequest request;
    request.scope =
        static_cast<std::uint8_t>(svc::MetricsScope::kDeterministic);
    const svc::Frame response = service.handle(svc::make_request(
        svc::CommandId::kMetrics, svc::encode(request)));
    EXPECT_EQ(status_of(response), svc::StatusCode::kOk);
    return response.payload;
  };

  const std::vector<std::uint8_t> t1 = run(1);
  const std::vector<std::uint8_t> t2 = run(2);
  const std::vector<std::uint8_t> t8 = run(8);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2) << "kDeterministic snapshot drifted at 2 workers";
  EXPECT_EQ(t1, t8) << "kDeterministic snapshot drifted at 8 workers";

  // And it is a valid pet.obs.v1 document carrying the service member.
  const obs::JsonValue root = obs::parse_json(
      std::string(t1.begin(), t1.end()));
  const obs::JsonValue* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "pet.obs.v1");
  EXPECT_EQ(root.find("profile"), nullptr)
      << "deterministic scope must omit the wall-clock profile";
  const obs::JsonValue* service_member = root.find("service");
  ASSERT_NE(service_member, nullptr);
  const obs::JsonValue* populations = service_member->find("populations");
  ASSERT_NE(populations, nullptr);
  EXPECT_EQ(populations->object.size(), 2u);
  obs::set_level(saved_level);
}

TEST(ServiceObs, FlightRecorderCapturesDegradationBitmaskAndRequestId) {
  using namespace service_helpers;
  svc::EstimationService service;
  ASSERT_EQ(status_of(service.handle(register_frame(1, 3000, 17))),
            svc::StatusCode::kOk);

  // Full-budget run tells us the plan's appetite; half of that forces the
  // deadline planner to degrade (same shape as DeadlineDegradesBeforeRefusing).
  const svc::Frame full_response = service.handle(estimate_frame(1, 0xD15C));
  ASSERT_EQ(status_of(full_response), svc::StatusCode::kOk);
  const auto full = svc::parse_estimate_reply(full_response.payload);
  ASSERT_TRUE(full.has_value());

  const svc::Frame tight_request =
      estimate_frame(1, 0xD15C, full->query_slots / 2);
  const std::uint64_t request_id = svc::derive_request_id(tight_request);
  const svc::Frame tight_response = service.handle(tight_request);
  ASSERT_EQ(status_of(tight_response), svc::StatusCode::kOk);
  const auto tight = svc::parse_estimate_reply(tight_response.payload);
  ASSERT_TRUE(tight.has_value());
  ASSERT_EQ(tight->degraded, 1u);

  svc::FlightDumpRequest filter;
  filter.request_id = request_id;
  const svc::Frame dumped = service.handle(svc::make_request(
      svc::CommandId::kFlightDump, svc::encode(filter)));
  ASSERT_EQ(status_of(dumped), svc::StatusCode::kOk);
  const auto reply = svc::parse_flight_dump_reply(dumped.payload);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->records.size(), 1u);
  const svc::RequestRecord& record = reply->records[0];
  EXPECT_EQ(record.request_id, request_id);
  EXPECT_EQ(record.population_id, 1u);
  EXPECT_EQ(record.command,
            static_cast<std::uint16_t>(svc::CommandId::kEstimate));
  EXPECT_EQ(record.status, static_cast<std::uint16_t>(svc::StatusCode::kOk));
  EXPECT_NE(record.degrade_mask, 0u);
  // The mask decomposes the reply's single degraded bit: the truncation
  // bit mirrors the reply's flag, and a deadline-driven degrade must have
  // set truncation and/or the fit-shortfall bit.
  EXPECT_EQ((record.degrade_mask & svc::kDegradeTruncated) != 0,
            tight->truncated != 0);
  EXPECT_NE(record.degrade_mask &
                (svc::kDegradeTruncated | svc::kDegradeFitShort),
            0u);
  EXPECT_EQ(record.rounds, tight->rounds);
  EXPECT_EQ(record.latency_slots, tight->backoff_slots + tight->query_slots);
}

TEST(ServiceObs, FlightRecorderWrapsAroundThroughTheWireCommand) {
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.flight_capacity = 4;
  svc::EstimationService service(config);
  ASSERT_EQ(status_of(service.handle(register_frame(2, 300, 5))),
            svc::StatusCode::kOk);

  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const svc::Frame request = estimate_frame(2, 1000 + i);
    ids.push_back(svc::derive_request_id(request));
    ASSERT_EQ(status_of(service.handle(request)), svc::StatusCode::kOk);
  }
  // 1 register + 10 estimates recorded; ring holds only the newest 4.
  EXPECT_EQ(service.flight().recorded(), 11u);

  const svc::Frame dumped = service.handle(
      svc::make_request(svc::CommandId::kFlightDump));
  ASSERT_EQ(status_of(dumped), svc::StatusCode::kOk);
  const auto reply = svc::parse_flight_dump_reply(dumped.payload);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(reply->records[i].request_id, ids[6 + i])
        << "ring must keep the newest records in arrival order";
  }
}

TEST(ServiceObs, ShedErrorCarriesRequestIdAndShedBit) {
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.max_inflight = 2;
  config.worker_threads = 1;
  svc::EstimationService service(config);
  ASSERT_EQ(status_of(service.handle(register_frame(1, 200, 3))),
            svc::StatusCode::kOk);

  const svc::Frame request = estimate_frame(1, 77);
  const std::uint64_t request_id = svc::derive_request_id(request);
  {
    svc::EstimationService::InflightHold hold(service, config.max_inflight);
    const svc::Frame shed = service.submit(request).get();
    ASSERT_EQ(status_of(shed), svc::StatusCode::kResourceExhausted);
    const std::string detail = svc::error_detail(shed);
    EXPECT_NE(detail.find("request-id="), std::string::npos) << detail;
    EXPECT_NE(detail.find(svc::format_request_id(request_id)),
              std::string::npos)
        << detail;
  }

  svc::FlightDumpRequest filter;
  filter.request_id = request_id;
  const svc::Frame dumped = service.handle(svc::make_request(
      svc::CommandId::kFlightDump, svc::encode(filter)));
  const auto reply = svc::parse_flight_dump_reply(dumped.payload);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->records.size(), 1u);
  EXPECT_EQ(reply->records[0].degrade_mask & svc::kDegradeShed,
            svc::kDegradeShed);
  EXPECT_EQ(reply->records[0].population_id, 1u);
  EXPECT_EQ(reply->records[0].status,
            static_cast<std::uint16_t>(svc::StatusCode::kResourceExhausted));
}

// The three estimate failures that carry a request id end their detail with
// exactly " [request-id=<format_request_id(derive_request_id(frame))>]".
TEST(ServiceObs, EstimateFailuresEndWithTheRequestIdSuffix) {
  using namespace service_helpers;
  const auto expect_suffix = [](svc::EstimationService& service,
                                const svc::Frame& request,
                                svc::StatusCode status,
                                const std::string& reason) {
    const svc::Frame response = service.handle(request);
    ASSERT_EQ(status_of(response), status) << reason;
    const std::string want =
        reason + " [request-id=" +
        svc::format_request_id(svc::derive_request_id(request)) + "]";
    EXPECT_EQ(svc::error_detail(response), want);
  };

  svc::ServiceConfig lossy;
  lossy.link_faults.reply_loss_prob = 1.0;  // every attempt hits a fault
  svc::EstimationService faulty(lossy);
  ASSERT_EQ(status_of(faulty.handle(register_frame(1, 200, 3))),
            svc::StatusCode::kOk);
  expect_suffix(faulty, estimate_frame(1, 41), svc::StatusCode::kUnavailable,
                "transient link faults outlasted the retry policy");
  // The first backoff is at least half of base_backoff_slots (8).
  expect_suffix(faulty, estimate_frame(1, 42, /*deadline_slots=*/1),
                svc::StatusCode::kDeadlineExceeded,
                "retry backoff consumed the deadline budget");

  svc::EstimationService clean;
  ASSERT_EQ(status_of(clean.handle(register_frame(1, 200, 3))),
            svc::StatusCode::kOk);
  expect_suffix(clean, estimate_frame(1, 43, /*deadline_slots=*/3),
                svc::StatusCode::kDeadlineExceeded,
                "deadline budget cannot fit a single round");
}

TEST(ServiceObs, MonitorAndMetricsShareOneSourceOfTruth) {
  // The staleness fix: kMonitor's degraded/deadline-miss/retry totals are
  // folded from the same registry cells the kMetrics export renders, so
  // the two commands can never disagree.
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.link_faults.reply_loss_prob = 0.4;
  svc::EstimationService service(config);
  ASSERT_EQ(status_of(service.handle(register_frame(1, 3000, 17))),
            svc::StatusCode::kOk);
  const svc::Frame full_response = service.handle(estimate_frame(1, 0xD15C));
  ASSERT_EQ(status_of(full_response), svc::StatusCode::kOk);
  const auto full = svc::parse_estimate_reply(full_response.payload);
  ASSERT_TRUE(full.has_value());
  for (std::uint64_t i = 0; i < 6; ++i) {
    (void)service.handle(
        estimate_frame(1, rng::derive_seed(0xAB, i), full->query_slots / 2));
  }

  const svc::MonitorReply stats = service.stats();
  const svc::Frame metrics = service.handle(
      svc::make_request(svc::CommandId::kMetrics));
  ASSERT_EQ(status_of(metrics), svc::StatusCode::kOk);
  const obs::JsonValue root = obs::parse_json(
      std::string(metrics.payload.begin(), metrics.payload.end()));
  const obs::JsonValue* service_member = root.find("service");
  ASSERT_NE(service_member, nullptr);
  const obs::JsonValue* totals = service_member->find("totals");
  ASSERT_NE(totals, nullptr);
  const auto total_of = [&](const char* key) {
    const obs::JsonValue* value = totals->find(key);
    return value != nullptr ? static_cast<std::uint64_t>(value->number) : 0u;
  };
  EXPECT_GT(stats.degraded, 0u);
  EXPECT_EQ(total_of("degraded"), stats.degraded);
  EXPECT_EQ(total_of("deadline_misses"), stats.deadline_misses);
  EXPECT_EQ(total_of("retries"), stats.retries);

  // Unregistering folds the population into the retired accumulator: the
  // monotone totals must survive the entry's removal.
  svc::UnregisterRequest unregister;
  unregister.population_id = 1;
  ASSERT_EQ(status_of(service.handle(svc::make_request(
                svc::CommandId::kUnregister, svc::encode(unregister)))),
            svc::StatusCode::kOk);
  EXPECT_EQ(service.stats().degraded, stats.degraded);
  EXPECT_EQ(service.stats().retries, stats.retries);
}

TEST(ServiceObs, AccountingIdentitiesHoldOnEverySurface) {
  // Every reply is counted once, by status, and every svc.* / pet.svc.*
  // name renders the service cell behind it, so the accounting identities
  // hold on kMonitor, on the kMetrics "service" member and on its
  // "counters" alike — at level counters and at level off.
  using namespace service_helpers;
  const obs::Level saved_level = obs::level();
  for (const obs::Level level : {obs::Level::kCounters, obs::Level::kOff}) {
    SCOPED_TRACE(std::string(obs::to_string(level)));
    obs::set_level(level);
    obs::MetricsRegistry::instance().reset();
    svc::ServiceConfig config;
    config.worker_threads = 2;
    config.cache_entries = 64;
    config.link_faults.reply_loss_prob = 0.3;
    svc::EstimationService service(config);

    std::uint64_t submits = 0;
    std::map<std::uint16_t, std::uint64_t> seen;  ///< replies by status
    const auto tally = [&seen](const svc::Frame& reply) {
      ++seen[reply.status];
    };
    std::vector<std::future<svc::Frame>> pending;
    const auto submit = [&](svc::Frame frame) {
      ++submits;
      pending.push_back(service.submit(std::move(frame)));
    };
    const auto drain = [&] {
      for (std::future<svc::Frame>& reply : pending) tally(reply.get());
      pending.clear();
    };

    submit(register_frame(1, 600, 0xA1));
    submit(register_frame(2, 400, 0xA2));
    drain();
    for (int pass = 0; pass < 2; ++pass) {
      // The second pass repeats the first (cache hits); tight deadlines
      // degrade, impossible ones are DEADLINE_EXCEEDED.
      for (std::uint64_t i = 0; i < 12; ++i) {
        const std::uint64_t deadline = i % 6 == 5 ? 5 : (i % 3 == 0 ? 60 : 0);
        submit(estimate_frame(1 + (i & 1), 0x5EED + i, deadline));
      }
      drain();
    }
    svc::EstimateRequest bad_epsilon;
    bad_epsilon.population_id = 1;
    bad_epsilon.epsilon = 1.5;
    submit(svc::make_request(svc::CommandId::kEstimate,
                             svc::encode(bad_epsilon)));
    submit(estimate_frame(404, 1));
    submit(svc::make_request(svc::CommandId::kEstimate, {1, 2, 3}));
    svc::Frame skewed = estimate_frame(1, 7);
    skewed.ver_major = svc::kProtocolMajor + 1;
    submit(skewed);
    submit(test_frame(900, {}));
    drain();
    {
      svc::EstimationService::InflightHold hold(service, config.max_inflight);
      for (std::uint64_t i = 0; i < 3; ++i) {
        submit(estimate_frame(1 + i % 2, 0x5EED + i));
      }
      drain();
    }
    // Direct calls are replies too, but never accepted or completed.
    tally(service.handle(estimate_frame(2, 0x5EED + 1)));
    tally(service.handle(estimate_frame(404, 2)));
    tally(service.handle(svc::make_request(svc::CommandId::kPing)));
    service.note_connection_opened();
    service.note_bytes_received(64);
    service.note_frame_received();
    service.note_frame_sent(32);
    service.note_malformed_frame();
    service.note_connection_closed();
    service.begin_shutdown();
    submit(estimate_frame(1, 0x5EED));
    submit(svc::make_request(svc::CommandId::kPing));
    drain();

    const auto monitor = svc::parse_monitor_reply(
        service.handle(svc::make_request(svc::CommandId::kMonitor)).payload);
    ASSERT_TRUE(monitor.has_value());
    const svc::Frame metrics = service.handle(svc::make_request(
        svc::CommandId::kMetrics, svc::encode(svc::MetricsRequest{})));
    ASSERT_EQ(status_of(metrics), svc::StatusCode::kOk);
    const obs::JsonValue root = obs::parse_json(
        std::string(metrics.payload.begin(), metrics.payload.end()));
    const obs::JsonValue* counters = root.find("counters");
    const obs::JsonValue* gauges = root.find("gauges");
    const obs::JsonValue* histograms = root.find("histograms");
    const obs::JsonValue* member = root.find("service");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(histograms, nullptr);
    ASSERT_NE(member, nullptr);
    const obs::JsonValue* populations = member->find("populations");
    const obs::JsonValue* totals = member->find("totals");
    const obs::JsonValue* connections = member->find("connections");
    const obs::JsonValue* cache = member->find("cache");
    ASSERT_NE(populations, nullptr);
    ASSERT_NE(totals, nullptr);
    ASSERT_NE(connections, nullptr);
    ASSERT_NE(cache, nullptr);
    const auto at = [](const obs::JsonValue* object, const std::string& key) {
      const obs::JsonValue* value = object->find(key);
      EXPECT_NE(value, nullptr) << key;
      return value != nullptr ? static_cast<std::uint64_t>(value->number)
                              : ~std::uint64_t{0};
    };
    const auto replies = [&seen](std::initializer_list<svc::StatusCode> of) {
      std::uint64_t total = 0;
      for (const svc::StatusCode status : of) {
        total += seen[static_cast<std::uint16_t>(status)];
      }
      return total;
    };

    // The script reached every path it claims to.
    EXPECT_GT(at(cache, "hits"), 0u);
    EXPECT_GT(at(totals, "degraded"), 0u);
    EXPECT_GT(at(totals, "shed"), 0u);
    EXPECT_GT(replies({svc::StatusCode::kDeadlineExceeded}), 0u);
    EXPECT_GT(replies({svc::StatusCode::kResourceExhausted}), 0u);
    EXPECT_GT(replies({svc::StatusCode::kShuttingDown}), 0u);
    EXPECT_GT(at(counters, "svc.retry.attempts"), 0u);

    // kMonitor: every submit() was admitted or shed, and after the drain
    // every admitted request completed.
    EXPECT_EQ(monitor->inflight, 0u);
    EXPECT_EQ(submits, monitor->accepted + monitor->shed);
    EXPECT_EQ(monitor->accepted, monitor->completed);

    // "service" member: requests = ok + errors per population and in
    // totals (sheds never became requests); one cache lookup per request.
    for (const auto& [id, pop] : populations->object) {
      EXPECT_EQ(at(&pop, "requests"), at(&pop, "ok") + at(&pop, "errors"))
          << "population " << id;
    }
    EXPECT_EQ(at(totals, "requests"), at(totals, "ok") + at(totals, "errors"));
    EXPECT_EQ(at(cache, "hits") + at(cache, "misses"), at(totals, "requests"));

    // "counters": the same identities over the exported names.
    EXPECT_EQ(at(counters, "pet.svc.pop.requests"),
              at(counters, "pet.svc.pop.ok") +
                  at(counters, "pet.svc.pop.errors"));
    EXPECT_EQ(at(counters, "pet.svc.cache.hits") +
                  at(counters, "pet.svc.cache.misses"),
              at(totals, "requests"));
    EXPECT_EQ(at(counters, "pet.svc.pop.cache_hits"),
              at(counters, "pet.svc.cache.hits"));
    EXPECT_EQ(submits,
              at(counters, "svc.req.accepted") + at(counters, "svc.req.shed"));
    EXPECT_EQ(at(counters, "svc.req.accepted"),
              at(counters, "svc.req.completed"));

    // Every service name equals the cell it renders.
    for (const auto& [key, value] : totals->object) {
      if (key == "latency_slots") continue;
      EXPECT_EQ(at(counters, "pet.svc.pop." + key), at(totals, key)) << key;
    }
    const obs::JsonValue* latency = histograms->find("pet.svc.pop.latency_slots");
    const obs::JsonValue* total_latency = totals->find("latency_slots");
    ASSERT_NE(latency, nullptr);
    ASSERT_NE(total_latency, nullptr);
    ASSERT_NE(latency->find("counts"), nullptr);
    ASSERT_NE(total_latency->find("counts"), nullptr);
    const auto& counts = latency->find("counts")->array;
    const auto& total_counts = total_latency->find("counts")->array;
    ASSERT_EQ(counts.size(), total_counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i].number, total_counts[i].number) << "bucket " << i;
    }
    for (const auto& [key, value] : connections->object) {
      EXPECT_EQ(at(counters, "pet.svc.conn." + key), at(connections, key))
          << key;
    }
    EXPECT_GT(at(counters, "pet.svc.conn.frames_tx"), 0u);
    for (const char* key : {"hits", "misses", "evictions"}) {
      EXPECT_EQ(at(counters, std::string("pet.svc.cache.") + key),
                at(cache, key))
          << key;
    }
    EXPECT_EQ(at(gauges, "pet.svc.cache.bytes"), at(cache, "bytes"));
    EXPECT_EQ(at(counters, "svc.req.accepted"), monitor->accepted);
    EXPECT_EQ(at(counters, "svc.req.completed"), monitor->completed);
    EXPECT_EQ(at(counters, "svc.req.shed"), monitor->shed);
    EXPECT_EQ(at(counters, "svc.frame.malformed"), monitor->malformed_frames);
    EXPECT_EQ(at(counters, "svc.req.degraded"), at(totals, "degraded"));
    EXPECT_EQ(at(counters, "svc.deadline.misses"),
              at(totals, "deadline_misses"));

    // Replies by status, as the client saw them.
    EXPECT_EQ(monitor->shed, replies({svc::StatusCode::kResourceExhausted,
                                      svc::StatusCode::kShuttingDown}));
    EXPECT_EQ(monitor->malformed_frames,
              replies({svc::StatusCode::kMalformedFrame}) + 1);
    EXPECT_EQ(at(counters, "svc.frame.version_skew"), 1u);
    EXPECT_EQ(at(counters, "svc.retry.exhausted"),
              replies({svc::StatusCode::kUnavailable}));
    EXPECT_EQ(at(counters, "svc.req.rejected"),
              replies({svc::StatusCode::kIncompatibleVersion,
                       svc::StatusCode::kUnknownCommand,
                       svc::StatusCode::kInvalidArgument,
                       svc::StatusCode::kNotFound,
                       svc::StatusCode::kAlreadyExists,
                       svc::StatusCode::kDeadlineExceeded,
                       svc::StatusCode::kUnavailable,
                       svc::StatusCode::kInternal,
                       svc::StatusCode::kUnsupported}));
  }
  obs::set_level(saved_level);
}

TEST(ServiceObs, PopulationScopeFiltersKnownAndRejectsUnknown) {
  using namespace service_helpers;
  svc::EstimationService service;
  ASSERT_EQ(status_of(service.handle(register_frame(9, 500, 2))),
            svc::StatusCode::kOk);
  ASSERT_EQ(status_of(service.handle(estimate_frame(9, 123))),
            svc::StatusCode::kOk);

  svc::MetricsRequest request;
  request.scope = static_cast<std::uint8_t>(svc::MetricsScope::kPopulation);
  request.population_id = 9;
  const svc::Frame known = service.handle(svc::make_request(
      svc::CommandId::kMetrics, svc::encode(request)));
  ASSERT_EQ(status_of(known), svc::StatusCode::kOk);
  const obs::JsonValue root = obs::parse_json(
      std::string(known.payload.begin(), known.payload.end()));
  const obs::JsonValue* population = root.find("population");
  ASSERT_NE(population, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(population->number), 9u);
  const obs::JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* requests = counters->find("pet.svc.pop.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(requests->number), 1u);

  request.population_id = 404;
  EXPECT_EQ(status_of(service.handle(svc::make_request(
                svc::CommandId::kMetrics, svc::encode(request)))),
            svc::StatusCode::kNotFound);
}

TEST(ServiceObs, MetricsExportConcurrentWithTraffic) {
  // TSan payload (the service label runs under -fsanitize=thread in CI):
  // kMetrics/kFlightDump snapshots taken while worker threads hammer the
  // estimate plane must be data-race free and always well-formed.
  using namespace service_helpers;
  svc::ServiceConfig config;
  config.worker_threads = 4;
  svc::EstimationService service(config);
  ASSERT_EQ(status_of(service.handle(register_frame(1, 400, 3))),
            svc::StatusCode::kOk);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const svc::Frame metrics = service.handle(
          svc::make_request(svc::CommandId::kMetrics));
      EXPECT_EQ(static_cast<svc::StatusCode>(metrics.status),
                svc::StatusCode::kOk);
      const svc::Frame dump = service.handle(
          svc::make_request(svc::CommandId::kFlightDump));
      EXPECT_EQ(static_cast<svc::StatusCode>(dump.status),
                svc::StatusCode::kOk);
    }
  });
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t i = 0; i < 16; ++i) {
        (void)service.submit(
            estimate_frame(1, rng::derive_seed(c, i))).get();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  stop.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GE(service.flight().recorded(), 49u);
}

#else  // !PET_OBS_COMPILED

TEST(ServiceObs, ExportCommandsReturnTypedUnsupportedWhenCompiledOut) {
  // PET_OBS=OFF builds still speak the full v1.1 command set; the export
  // commands answer with the typed capability error instead of vanishing.
  using namespace service_helpers;
  svc::EstimationService service;
  const svc::Frame metrics = service.handle(
      svc::make_request(svc::CommandId::kMetrics));
  EXPECT_EQ(status_of(metrics), svc::StatusCode::kUnsupported);
  EXPECT_FALSE(svc::error_detail(metrics).empty());
  const svc::Frame dump = service.handle(
      svc::make_request(svc::CommandId::kFlightDump));
  EXPECT_EQ(status_of(dump), svc::StatusCode::kUnsupported);
  EXPECT_FALSE(svc::is_retryable(svc::StatusCode::kUnsupported));
}

#endif  // PET_OBS_COMPILED

// --- chaos link ------------------------------------------------------------

TEST(Chaos, SeededLinkReplaysBitForBit) {
  sim::ChannelImpairments impairments;
  impairments.reply_loss_prob = 0.2;
  impairments.false_busy_prob = 0.2;
  impairments.seed = 0xC405;

  const auto run = [&] {
    svc::ChaosLink link(impairments);
    std::vector<svc::ChaosLink::Action> actions;
    std::vector<std::vector<std::uint8_t>> outputs;
    for (std::uint16_t i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> bytes = svc::encode_frame(
          test_frame(i, {static_cast<std::uint8_t>(i), 0x55}));
      actions.push_back(link.apply(bytes));
      outputs.push_back(std::move(bytes));
    }
    return std::make_pair(std::move(actions), std::move(outputs));
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);

  // The mix actually exercised more than one action.
  const auto count = [&](svc::ChaosLink::Action action) {
    return std::count(first.first.begin(), first.first.end(), action);
  };
  EXPECT_GT(count(svc::ChaosLink::Action::kDeliver), 0);
  EXPECT_GT(count(svc::ChaosLink::Action::kDropFrame) +
                count(svc::ChaosLink::Action::kCorruptBit),
            0);
}

TEST(Chaos, CorruptedFramesAreCaughtByTheCodec) {
  sim::ChannelImpairments impairments;
  impairments.false_busy_prob = 1.0;  // every frame gets a bit flip
  svc::ChaosLink link(impairments);

  const svc::Frame original = test_frame(4, {1, 2, 3, 4, 5, 6, 7, 8});
  const std::vector<std::uint8_t> clean = svc::encode_frame(original);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> bytes = clean;
    const svc::ChaosLink::Action action = link.apply(bytes);
    ASSERT_EQ(action, svc::ChaosLink::Action::kCorruptBit);
    ASSERT_NE(bytes, clean);

    svc::Decoder decoder;
    decoder.feed(bytes);
    const DrainResult result = drain(decoder);
    // Detected (typed error) or skipped; never a silently different frame.
    for (const svc::Frame& decoded : result.frames) {
      EXPECT_TRUE(frames_equal(original, decoded));
    }
    EXPECT_TRUE(result.frames.empty());
    EXPECT_GE(result.errors.size(), 1u);
  }
  EXPECT_EQ(link.corrupted(), 50u);
}

// --- cooperative cancellation / truncated artifacts ------------------------

TEST(Cancellation, SerialRunnerStopsExactlyAtTheCancelPoint) {
  // The serial path is deterministic: cancel during trial 64 means trials
  // 0..64 fold and 65 is never started.
  runtime::TrialRunner runner(1);
  const runtime::CancelToken token = runtime::CancelToken::cancellable();
  runner.set_cancel_token(token);
  std::uint64_t folded = 0;
  const std::uint64_t total = runner.run<std::uint64_t>(
      10000,
      [&](std::uint64_t i) {
        if (i == 64) token.cancel();
        return i;
      },
      [&](std::uint64_t, std::uint64_t&&) { ++folded; });
  EXPECT_EQ(total, 65u);
  EXPECT_EQ(folded, 65u);
}

TEST(Cancellation, ParallelRunnerDrainsToAContiguousPrefix) {
  // Parallel scheduling (work stealing) makes the cut point nondeterministic
  // — the contract is only that the fold sees a contiguous prefix and the
  // sweep actually stops early.
  runtime::TrialRunner runner(4);
  const runtime::CancelToken token = runtime::CancelToken::cancellable();
  runner.set_cancel_token(token);

  std::atomic<std::uint64_t> folded{0};
  const std::uint64_t total = runner.run<std::uint64_t>(
      10000,
      [&](std::uint64_t i) {
        if (i == 64) token.cancel();
        return i;
      },
      [&](std::uint64_t i, std::uint64_t&& value) {
        EXPECT_EQ(value, i) << "fold must replay the serial order";
        folded.fetch_add(1);
      });
  EXPECT_LT(total, 10000u) << "cancel() fired mid-sweep; a full run means "
                              "the token was ignored";
  EXPECT_EQ(total, folded.load());
}

TEST(Cancellation, TruncatedBenchArtifactIsMarked) {
  runtime::BenchReport report("cancel_test", 1);
  report.add_row("t", {"a"}, {"1"});
  EXPECT_EQ(report.to_json().find("\"truncated\""), std::string::npos)
      << "untruncated artifacts must keep the historical schema";
  report.set_truncated(true);
  EXPECT_NE(report.to_json().find("\"truncated\": true"), std::string::npos);
}

}  // namespace

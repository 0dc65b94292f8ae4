// pet::svc wire framing: length-prefixed SOF/LRC binary frames.
//
// Layout (all integers little-endian, docs/service.md has the diagram):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     1  SOF (0xA5)
//        1     1  version major   } semver: major must match, minor
//        2     1  version minor   } may trail (forward compatible)
//        3     2  command  (CommandId)
//        5     2  status   (StatusCode; 0 in requests)
//        7     4  payload length (<= kMaxPayload)
//       11     1  header LRC  (over bytes [0, 11))
//       12   LEN  payload
//   12+LEN     1  payload LRC (over the payload bytes)
//
// The decoder is incremental and *total*: any byte sequence — truncated,
// corrupted, oversized, or adversarial — produces either complete frames or
// typed DecodeStatus errors, never UB and never unbounded buffering.  After
// an error it resyncs by scanning forward for the next SOF byte, so a
// corrupted frame costs exactly one frame, not the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace pet::svc {

inline constexpr std::uint8_t kSof = 0xA5;
inline constexpr std::uint8_t kProtocolMajor = 1;
/// Minor 1 added kMetrics / kFlightDump (additive commands only; every
/// v1.0 payload layout is frozen, so v1.0 clients parse v1.1 replies).
/// Minor 2 stamped flight records with the shard id and a cache-hit flag,
/// growing the kFlightDump record from 84 to 88 bytes.  Every v1.0 payload
/// stays frozen (MonitorReply in particular); a v1.1 client keeps working
/// except that its kFlightDump parser — a diagnostic surface — reports
/// MALFORMED until it learns the 88-byte record.
inline constexpr std::uint8_t kProtocolMinor = 2;
inline constexpr std::size_t kHeaderSize = 12;  ///< SOF through header LRC
/// Ceiling on a frame payload.  Large enough for any pet::svc message
/// (responses are O(100) bytes), small enough that a hostile length field
/// cannot make the decoder buffer unbounded memory.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

/// Longitudinal redundancy check: the byte that makes the sum over
/// `data` plus the LRC itself vanish mod 256.
[[nodiscard]] std::uint8_t lrc(const std::uint8_t* data,
                               std::size_t size) noexcept;

struct Frame {
  std::uint8_t ver_major = kProtocolMajor;
  std::uint8_t ver_minor = kProtocolMinor;
  std::uint16_t command = 0;
  std::uint16_t status = 0;
  std::vector<std::uint8_t> payload;
};

/// Append one serialized frame (header + payload + LRCs computed here) to
/// `out`, leaving its existing bytes untouched.  Sessions use it to coalesce
/// several replies into one reused write buffer.
void encode_frame_into(std::vector<std::uint8_t>& out, const Frame& frame);

/// Serialize a frame into a fresh buffer (encode_frame_into on an empty
/// one).  The inverse of Decoder::next for every well-formed frame:
/// encode ∘ decode == identity.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

enum class DecodeStatus : std::uint8_t {
  kFrame,         ///< a complete frame was produced
  kNeedMoreData,  ///< buffer holds only a frame prefix; feed more bytes
  kBadSof,        ///< garbage before the next SOF was skipped
  kBadHeaderLrc,  ///< header checksum mismatch; resynced past the SOF
  kBadPayloadLrc, ///< payload checksum mismatch; whole frame dropped
  kOversized,     ///< length field exceeds kMaxPayload; resynced
};

[[nodiscard]] std::string_view to_string(DecodeStatus status) noexcept;

/// True for the statuses a session should surface as MALFORMED_FRAME (the
/// decoder already resynced; the caller only needs to count and report).
[[nodiscard]] constexpr bool is_decode_error(DecodeStatus status) noexcept {
  return status != DecodeStatus::kFrame &&
         status != DecodeStatus::kNeedMoreData;
}

/// Incremental frame decoder.  feed() appends raw bytes; next() consumes at
/// most one frame (or one error's worth of garbage) per call:
///
///   Frame frame;
///   decoder.feed(bytes, size);
///   for (;;) {
///     const DecodeStatus st = decoder.next(frame);
///     if (st == DecodeStatus::kNeedMoreData) break;
///     if (st == DecodeStatus::kFrame) handle(frame); else count_malformed(st);
///   }
class Decoder {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  void feed(const std::vector<std::uint8_t>& data) {
    feed(data.data(), data.size());
  }

  /// Decode the next frame into `out`.  Never blocks; never reads past the
  /// fed bytes; after any error the internal cursor has already advanced so
  /// repeated calls make progress (no livelock on garbage input).
  [[nodiscard]] DecodeStatus next(Frame& out);

  /// Bytes buffered but not yet consumed (diagnostics/tests).
  [[nodiscard]] std::size_t pending() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  void discard(std::size_t n) noexcept;
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace pet::svc

#include "service/frame.hpp"

#include <algorithm>
#include <cstring>

#include "common/ensure.hpp"

namespace pet::svc {

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
}

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  p[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  p[3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

[[nodiscard]] std::uint16_t get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint8_t lrc(const std::uint8_t* data, std::size_t size) noexcept {
  std::uint8_t sum = 0;
  for (std::size_t i = 0; i < size; ++i) sum += data[i];
  return static_cast<std::uint8_t>(0x100u - sum);
}

std::string_view to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kNeedMoreData: return "need-more-data";
    case DecodeStatus::kBadSof: return "bad-sof";
    case DecodeStatus::kBadHeaderLrc: return "bad-header-lrc";
    case DecodeStatus::kBadPayloadLrc: return "bad-payload-lrc";
    case DecodeStatus::kOversized: return "oversized";
  }
  return "unknown";
}

void encode_frame_into(std::vector<std::uint8_t>& out, const Frame& frame) {
  expects(frame.payload.size() <= kMaxPayload,
          "encode_frame: payload exceeds kMaxPayload");
  const std::size_t len = frame.payload.size();
  // Grow geometrically, so appending many replies to one reused buffer
  // stays amortised O(bytes); a fresh buffer gets exactly one frame.
  const std::size_t total = kHeaderSize + len + 1;
  if (out.capacity() - out.size() < total) {
    out.reserve(std::max(out.size() + total, 2 * out.capacity()));
  }
  std::uint8_t header[kHeaderSize];
  header[0] = kSof;
  header[1] = frame.ver_major;
  header[2] = frame.ver_minor;
  put_u16(header + 3, frame.command);
  put_u16(header + 5, frame.status);
  put_u32(header + 7, static_cast<std::uint32_t>(len));
  header[kHeaderSize - 1] = lrc(header, kHeaderSize - 1);
  out.insert(out.end(), header, header + kHeaderSize);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  out.push_back(lrc(frame.payload.data(), len));
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame_into(out, frame);
  return out;
}

void Decoder::feed(const std::uint8_t* data, std::size_t size) {
  compact();
  buffer_.insert(buffer_.end(), data, data + size);
}

void Decoder::discard(std::size_t n) noexcept {
  consumed_ = std::min(consumed_ + n, buffer_.size());
}

void Decoder::compact() {
  // Drop already-consumed bytes so the buffer never grows past one frame's
  // worth of unconsumed data plus whatever the peer just sent.
  if (consumed_ == 0) return;
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  consumed_ = 0;
}

DecodeStatus Decoder::next(Frame& out) {
  const std::uint8_t* base = buffer_.data() + consumed_;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail == 0) return DecodeStatus::kNeedMoreData;

  // Resync: skip to the next SOF byte.  Reported as one error per garbage
  // run so the caller can count it, then decoding continues at the SOF.
  if (base[0] != kSof) {
    const std::uint8_t* sof =
        static_cast<const std::uint8_t*>(std::memchr(base, kSof, avail));
    discard(sof == nullptr ? avail : static_cast<std::size_t>(sof - base));
    return DecodeStatus::kBadSof;
  }

  if (avail < kHeaderSize) return DecodeStatus::kNeedMoreData;

  // Header integrity first: a corrupt length field must never drive
  // buffering decisions.  On mismatch, skip only the SOF byte — the real
  // frame boundary may be just inside the bytes we mistook for a header.
  if (lrc(base, kHeaderSize - 1) != base[kHeaderSize - 1]) {
    discard(1);
    return DecodeStatus::kBadHeaderLrc;
  }

  const std::uint32_t len = get_u32(base + 7);
  if (len > kMaxPayload) {
    discard(1);
    return DecodeStatus::kOversized;
  }

  const std::size_t total = kHeaderSize + static_cast<std::size_t>(len) + 1;
  if (avail < total) return DecodeStatus::kNeedMoreData;

  const std::uint8_t* payload = base + kHeaderSize;
  if (lrc(payload, len) != payload[len]) {
    // Header verified, so the frame boundary is trustworthy: drop the whole
    // frame rather than rescanning byte by byte through its payload.
    discard(total);
    return DecodeStatus::kBadPayloadLrc;
  }

  out.ver_major = base[1];
  out.ver_minor = base[2];
  out.command = get_u16(base + 3);
  out.status = get_u16(base + 5);
  out.payload.assign(payload, payload + len);
  discard(total);
  return DecodeStatus::kFrame;
}

}  // namespace pet::svc

// Channel abstractions: what an estimation protocol needs from the RFID air
// interface, separated from how it is simulated.
//
// Three query models cover every protocol in this library:
//   * PrefixChannel — PET's path-prefix probes;
//   * RangeChannel  — FNEB's "slot index <= bound" probes;
//   * FrameChannel  — framed protocols (LoF lottery frames, UPE/EZB ALOHA
//                     frames) that poll every slot of a frame.
//
// Four interchangeable back ends implement them (see DESIGN.md):
//   * ExactChannel     — per-tag hashing, O(n) per probe/frame: the
//                        reference semantics;
//   * SortedPetChannel — preloaded-code PET accelerated by a bucket index
//                        over the codes, O(1) expected per probe and per
//                        round, bit-identical to Exact;
//   * SampledChannel   — distribution-exact sampling that needs only n, for
//                        large-scale sweeps (no per-tag state at all);
//   * DeviceChannel    — full device-level simulation on the DES kernel
//                        (real tag state machines, impairments, airtime).
//
// Slot accounting is identical across back ends: one probe or one frame
// poll is one Reader-Talks-First slot in the ledger.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitcode.hpp"
#include "common/types.hpp"
#include "sim/medium.hpp"

namespace pet::chan {

/// Parameters announced at the start of one PET round (Algorithms 1-4).
struct RoundConfig {
  BitCode path;                ///< the estimating path r (width = H)
  std::uint64_t seed = 0;      ///< per-round hash seed s (rehash mode only)
  bool tags_rehash = false;    ///< Alg. 2 (true) vs Alg. 4 preloaded (false)
  unsigned begin_bits = 32;    ///< downlink bits for the round-begin packet
  unsigned query_bits = 32;    ///< downlink bits charged per prefix probe
};

/// PET's query model.
class PrefixChannel {
 public:
  virtual ~PrefixChannel() = default;

  virtual void begin_round(const RoundConfig& round) = 0;

  /// One slot: "tags matching the first `len` bits of the path, respond".
  /// Returns true iff the reply window was nonempty.  len in [0, H]
  /// (len == 0 is the "anyone there?" probe every tag answers).
  virtual bool query_prefix(unsigned len) = 0;

  /// Tag `slots` of the already-counted probe slots as re-reads in the
  /// ledger's retry accounting (SlotLedger::retry_slots).  Robust
  /// estimators call this after each voting re-read so the extra slot cost
  /// stays attributable; the default keeps plain estimators unaffected.
  virtual void note_retries(std::uint64_t slots) noexcept { (void)slots; }

  [[nodiscard]] virtual const sim::SlotLedger& ledger() const noexcept = 0;
  virtual void reset_ledger() noexcept = 0;
};

/// Optional capability on PrefixChannel back ends that know the full code
/// set and can therefore report the current round's gray-node depth
/// d = max_tag lcp(code, path) without issuing probes.  PET's round driver
/// uses it to synthesize the exact probe sequence (and byte-identical
/// SlotLedger totals) that Algorithm 1/3 descent would have produced: a
/// probe at prefix length len is busy iff len <= d (for n >= 1), so the
/// whole descent is a pure function of (d, H, search mode), and only the
/// busy probes need responder counts.  Discovered via dynamic_cast; back
/// ends without the capability keep the probed path (docs/performance.md).
class DepthOracle {
 public:
  virtual ~DepthOracle() = default;

  /// Depth of the deepest busy prefix of the current round's path: 0 when
  /// no tag matches even the first path bit (or n == 0), H when some code
  /// equals the path.  Valid only after begin_round.
  [[nodiscard]] virtual unsigned round_depth() = 0;

  /// Account one probe at prefix `len` exactly as query_prefix(len) would
  /// -- same ledger fields, same per-probe addends, same busy verdict --
  /// but answered from the depth cache instead of fresh full-range
  /// searches.  Idle probes (len > d) cost no searches at all.
  virtual bool synth_probe(unsigned len) = 0;
};

/// Parameters announced at the start of one FNEB round.
struct RangeFrameConfig {
  std::uint64_t seed = 0;
  std::uint64_t frame_size = 0;  ///< conceptual frame f (never fully polled)
  unsigned begin_bits = 32;
  unsigned query_bits = 32;
};

/// FNEB's query model.
class RangeChannel {
 public:
  virtual ~RangeChannel() = default;

  virtual void begin_range_frame(const RangeFrameConfig& frame) = 0;

  /// One slot: "tags whose frame slot is <= bound, respond".
  virtual bool query_range(std::uint64_t bound) = 0;

  [[nodiscard]] virtual const sim::SlotLedger& ledger() const noexcept = 0;
  virtual void reset_ledger() noexcept = 0;
};

/// One polled frame for LoF / UPE / EZB.
struct FrameConfig {
  std::uint64_t seed = 0;
  std::uint64_t frame_size = 0;  ///< number of polled slots
  double persistence = 1.0;      ///< per-tag participation probability
  bool geometric = false;        ///< LoF lottery levels vs uniform slots
  unsigned begin_bits = 32;
  unsigned poll_bits = 1;
};

/// Frame-based query model: polls every slot of the frame and reports the
/// per-slot outcomes in order.
class FrameChannel {
 public:
  virtual ~FrameChannel() = default;

  /// The returned reference points into a buffer owned by the channel and
  /// stays valid until the next run_frame on the same channel — back ends
  /// reuse it so repeated frames allocate nothing in steady state.
  virtual const std::vector<SlotOutcome>& run_frame(
      const FrameConfig& frame) = 0;

  [[nodiscard]] virtual const sim::SlotLedger& ledger() const noexcept = 0;
  virtual void reset_ledger() noexcept = 0;
};

}  // namespace pet::chan

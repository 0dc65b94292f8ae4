// Gen2PrefixChannel: the estimation protocols' channel contracts realized
// over the Gen2 air protocol (docs/gen2.md).
//
// Mapping (the Select+Query encoding of PET's probes):
//   * PET prefix probe at length len  =  one Select whose mask is the
//     first len bits of the estimating path (tags matching -> A, others
//     -> B in the configured session), followed by one single-slot Query
//     targeting A.  The Select is a downlink-only broadcast; the Query
//     opens exactly one reply window — so the probe costs ONE slot, the
//     same accounting as the ideal back ends, while bits and airtime are
//     the real Gen2 command sizes.
//   * FNEB range probe "slot <= bound"  =  the dyadic Select cover of
//     [1, bound] (popcount(bound) Selects over slot-index prefixes) plus
//     one Query slot.
//   * LoF/UPE/EZB frame  =  one session Select, then Query opening slot 0
//     and QueryRep stepping the rest of the frame.
//
// Tag membership per probe is computed from preloaded EPC codes exactly
// as ExactChannel does (same hashes, same per-depth prefix counts, same
// frame occupancy sampling), so with inert impairments every busy/idle
// verdict and slot outcome is identical to the ideal reference — the
// conformance harness pins this.  Impairments (loss, capture, noise,
// outages) then act per slot through the embedded Gen2Mac.
//
// DepthOracle: synth_probe delegates to the same probe path as
// query_prefix (a probe here is O(1) after begin_round, and routing both
// through one code path keeps the fault-stream draws identical whether a
// round is probed or synthesized), so the oracle is valid in every config.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/channel.hpp"
#include "gen2/gen2.hpp"
#include "gen2/mac.hpp"
#include "rng/hash_family.hpp"

namespace pet::gen2 {

struct Gen2ChannelConfig {
  unsigned tree_height = 32;  ///< H: PET code width == modeled EPC width
  rng::HashKind hash = rng::HashKind::kMix64;
  std::uint64_t manufacturing_seed = 0x9a9a5eedULL;
  Session session = Session::kS2;  ///< session the probe Selects steer
  /// Truncate on the probe Selects: matching tags backscatter only the
  /// EPC remainder (H - len bits, floor 1) instead of a full RN16, so
  /// deep probes get cheaper on the uplink.
  bool truncate = true;
  sim::Gen2LinkConfig link{};
  sim::ChannelImpairments impairments{};
  sim::Gen2CommandBits bits{};
};

class Gen2PrefixChannel final : public chan::PrefixChannel,
                                public chan::RangeChannel,
                                public chan::FrameChannel,
                                public chan::DepthOracle {
 public:
  explicit Gen2PrefixChannel(std::vector<TagId> tags,
                             Gen2ChannelConfig config = {});

  [[nodiscard]] std::size_t tag_count() const noexcept { return tags_.size(); }

  // PrefixChannel (PET).  Preloaded-code rounds only: the Select masks
  // compare against EPC memory, which per-round rehashing would rewrite
  // under the reader's feet — begin_round rejects tags_rehash.
  void begin_round(const chan::RoundConfig& round) override;
  bool query_prefix(unsigned len) override;
  void note_retries(std::uint64_t slots) noexcept override {
    mac_.note_retries(slots);
  }

  // DepthOracle
  unsigned round_depth() override;
  bool synth_probe(unsigned len) override { return probe(len); }

  // RangeChannel (FNEB)
  void begin_range_frame(const chan::RangeFrameConfig& frame) override;
  bool query_range(std::uint64_t bound) override;

  // FrameChannel (LoF / UPE / EZB)
  const std::vector<SlotOutcome>& run_frame(
      const chan::FrameConfig& frame) override;

  [[nodiscard]] const sim::SlotLedger& ledger() const noexcept override {
    return mac_.ledger();
  }
  void reset_ledger() noexcept override { mac_.reset_ledger(); }

  /// The underlying slot engine (fault-chain state, slot clock) for tests.
  [[nodiscard]] const Gen2Mac& mac() const noexcept { return mac_; }

 private:
  bool probe(unsigned len);
  void select_broadcast(unsigned mask_bits);

  std::vector<TagId> tags_;
  Gen2ChannelConfig config_;
  Gen2Mac mac_;
  std::vector<BitCode> preloaded_;          ///< per-tag EPC codes
  std::vector<std::uint32_t> depth_count_;  ///< #tags with lcp >= k
  std::vector<std::uint64_t> range_slots_;  ///< sorted frame-slot picks
  std::uint64_t range_frame_size_ = 0;
  std::vector<std::uint32_t> frame_occupancy_;  ///< run_frame scratch
  std::vector<SlotOutcome> frame_outcomes_;     ///< run_frame result buffer
};

}  // namespace pet::gen2

// SortedPetChannel: scalable back end for preloaded-code PET (Algorithm 4).
//
// With preloaded codes the tag-side state never changes, so the channel
// files the code values once into buckets keyed on their top b bits (b
// grows with n so a bucket holds 16-32 codes on average) and keeps the
// 2^b + 1 bucket offsets.  A prefix probe of length len <= b is one offset
// difference; a longer one, and each round's depth, scans the path's
// bucket.  This is bit-identical to ExactChannel — same hash family, same
// codes, same outcomes including singleton/collision classification — at
// O(n) per build with no sort, and O(1) expected per probe and per round,
// which is what makes the 300-run x million-tag paper sweeps tractable
// (docs/performance.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "channel/channel.hpp"
#include "rng/hash_family.hpp"
#include "sim/simulator.hpp"

namespace pet::chan {

struct SortedPetChannelConfig {
  unsigned tree_height = 32;
  rng::HashKind hash = rng::HashKind::kMix64;
  std::uint64_t manufacturing_seed = 0x9a9a5eedULL;
  sim::SlotTiming timing{};
};

class SortedPetChannel final : public PrefixChannel {
 public:
  /// Hashes `ids` into the preloaded codes.  The channel keeps the codes
  /// only, so `ids` need not outlive the call.
  SortedPetChannel(std::span<const TagId> ids,
                   SortedPetChannelConfig config = {});
  ~SortedPetChannel() override;

  [[nodiscard]] std::size_t tag_count() const noexcept {
    return code_values_.size();
  }

  /// Rebuild the preloaded codes of `ids` under `config`, reusing the
  /// channel's code and offset buffers.  Equivalent to destroying the
  /// channel and constructing a fresh one from the same arguments -- this
  /// is what spares steady-state sweep trials every n-sized allocation.
  /// Pending obs deltas are flushed first; the ledger is left untouched
  /// (callers reset_ledger() per trial).  A config the constructor would
  /// refuse throws and keeps the codes and config of the last build.
  void rebuild(std::span<const TagId> ids,
               const SortedPetChannelConfig& config);

  /// Publish ledger deltas accumulated since the last round boundary to the
  /// obs registry.  Called internally at round boundaries and destruction;
  /// arena-reusing drivers call it at trial end so metric snapshots taken
  /// while the channel is still alive are complete.
  void flush_obs();

  void begin_round(const RoundConfig& round) override;
  /// One bucket scan per round fixes its depth d; then a probe is O(1) when
  /// idle (len > d) or a re-read of the last busy len.
  bool query_prefix(unsigned len) override;

  /// d = max lcp(code, path) of the open round: 0 when no code matches even
  /// the first path bit (or n == 0), H when some code equals the path.
  [[nodiscard]] unsigned round_depth();

  [[nodiscard]] const sim::SlotLedger& ledger() const noexcept override {
    return ledger_;
  }
  void reset_ledger() noexcept override {
    ledger_ = {};
    obs_published_ = {};
  }
  /// Retries land in the ledger only; the obs mirror picks up the delta at
  /// the next round boundary (see flush_obs in the .cpp).
  void note_retries(std::uint64_t slots) noexcept override {
    ledger_.retry_slots += slots;
  }

 private:
  void build_codes(std::span<const TagId> ids,
                   const SortedPetChannelConfig& config);
  [[nodiscard]] std::size_t responders(unsigned len) const noexcept;
  void account_probe(std::size_t responders) noexcept;
  void ensure_depth();

  SortedPetChannelConfig config_;
  std::vector<std::uint64_t> code_values_;   ///< H-bit codes, bucket order
  std::vector<std::uint32_t> bucket_start_;  ///< 2^b + 1 bucket offsets
  unsigned bucket_bits_ = 1;                 ///< b, derived from n and H
  std::uint64_t path_value_ = 0;
  unsigned query_bits_ = 32;
  bool round_open_ = false;
  bool depth_valid_ = false;  ///< depth_ computed for this round
  unsigned depth_ = 0;        ///< max lcp(code, path) this round
  /// The last busy len query_prefix counted this round (kNoLen: none yet)
  /// and its responder count, which a vote's re-read of it reuses.
  static constexpr unsigned kNoLen = ~0u;
  unsigned counted_len_ = kNoLen;
  std::size_t counted_ = 0;
  sim::SlotLedger ledger_;
  sim::SlotLedger obs_published_;  ///< ledger state already mirrored to obs
};

}  // namespace pet::chan

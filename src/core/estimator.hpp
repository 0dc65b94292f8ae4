// The PET protocol driver (reader side) and cardinality estimator:
// Algorithms 1 and 3 of the paper, over any PrefixChannel back end.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "channel/channel.hpp"
#include "common/types.hpp"
#include "core/fusion.hpp"
#include "sim/medium.hpp"
#include "stats/accuracy.hpp"
#include "tags/cost_model.hpp"

namespace pet::core {

/// How the reader locates the gray node on the estimating path.
enum class SearchMode : std::uint8_t {
  kLinear,       ///< Algorithm 1: additive prefix walk, O(log n) slots/round
  kBinaryPaper,  ///< Algorithm 3 verbatim: searches d in [1, H], exactly
                 ///< ceil(log2 H) slots (5 for H = 32); cannot observe d = 0
  kBinaryStrict, ///< binary search over d in [0, H]: one slot more in the
                 ///< worst case, exact for every population size incl. 0
};

[[nodiscard]] std::string_view to_string(SearchMode mode) noexcept;

struct PetConfig {
  unsigned tree_height = 32;  ///< H
  SearchMode search = SearchMode::kBinaryPaper;
  /// Algorithm 2 (true: tags rehash from a per-round seed; needs active
  /// tags) vs Algorithm 4 (false: preloaded codes; passive-tag friendly).
  bool tags_rehash = false;
  /// Downlink encoding of each query (Section 4.6.2).
  tags::CommandEncoding encoding = tags::CommandEncoding::kFullMask;
  /// How the per-round depths fuse into n̂ (Eq. (14) by default; the
  /// bias-corrected and median-of-means extensions are this library's).
  FusionRule fusion = FusionRule::kGeometricMean;
  unsigned fusion_groups = 16;   ///< kMedianOfMeans only
  double fusion_trim = 0.1;      ///< kTrimmedMean only, per-tail fraction

  void validate() const;

  /// Downlink bits of the per-round begin packet: the estimating path, plus
  /// the hash seed when tags rehash.
  [[nodiscard]] unsigned begin_bits() const noexcept {
    return tags_rehash ? 2 * tree_height : tree_height;
  }
  [[nodiscard]] unsigned query_bits() const noexcept {
    return tags::command_bits_per_query(encoding, tree_height);
  }

  /// Worst-case query slots per round under the configured search mode
  /// (for kLinear this depends on the population; returns H + 1).
  [[nodiscard]] unsigned worst_case_slots_per_round() const noexcept;
};

/// Outcome of one full estimation (m rounds).
struct EstimateResult {
  double n_hat = 0.0;              ///< estimated cardinality
  std::uint64_t rounds = 0;        ///< rounds executed
  double mean_depth = 0.0;         ///< dbar over the executed rounds
  std::vector<unsigned> depths;    ///< per-round observations d_i
  sim::SlotLedger ledger;          ///< slots/bits consumed by this estimate
  /// True when a RoundGate stopped the run before the requested round
  /// count; n_hat is then the best-effort fusion of the rounds completed.
  bool truncated = false;
};

/// Cooperative stop-check consulted between rounds: receives the number of
/// rounds completed so far and returns true to keep going, false to stop.
/// petd's deadline/drain path installs one; sweeps leave it empty.  The
/// gate must be deterministic if its caller needs deterministic results —
/// wall-clock gates belong only to best-effort service paths
/// (docs/service.md).
using RoundGate = std::function<bool(std::uint64_t rounds_done)>;

class PetEstimator {
 public:
  PetEstimator(PetConfig config, stats::AccuracyRequirement requirement);

  [[nodiscard]] const PetConfig& config() const noexcept { return config_; }

  /// Rounds mandated by Eq. (20) for the accuracy requirement.
  [[nodiscard]] std::uint64_t planned_rounds() const noexcept {
    return planned_rounds_;
  }

  /// Run the full protocol: planned_rounds() rounds, estimating paths and
  /// round seeds derived deterministically from `seed`.
  [[nodiscard]] EstimateResult estimate(chan::PrefixChannel& channel,
                                        std::uint64_t seed) const;

  /// Same, with an explicit round count (Fig. 4 sweeps).
  [[nodiscard]] EstimateResult estimate_with_rounds(
      chan::PrefixChannel& channel, std::uint64_t rounds,
      std::uint64_t seed) const;

  /// Same, with a RoundGate consulted before every round after the first.
  /// A run stopped early fuses the depths it has (result.truncated = true,
  /// result.rounds = rounds actually executed): a narrower best-effort
  /// estimate rather than no answer — the degradation primitive the
  /// pet::svc deadline path is built on.
  [[nodiscard]] EstimateResult estimate_with_rounds(
      chan::PrefixChannel& channel, std::uint64_t rounds, std::uint64_t seed,
      const RoundGate& gate) const;

  /// Begin and run round `index` of the run seeded by `seed`: the path
  /// comes from derive_seed(seed, 2 index), the round seed from
  /// derive_seed(seed, 2 index + 1).  estimate_with_rounds, PetSketch::take
  /// and StreamingMonitor::tick all run their rounds through it, so the
  /// same (seed, index) probes the same path whoever asks.  Returns what
  /// the run_round below returns.
  [[nodiscard]] std::optional<unsigned> run_round(chan::PrefixChannel& channel,
                                                  std::uint64_t seed,
                                                  std::uint64_t index) const;

  /// Execute one round on an already-begun channel round and return the
  /// observed prefix depth, or nullopt when the region is verifiably empty
  /// (strict/linear modes only).  Tests and bench/micro_ops call it on
  /// paths of their own.
  [[nodiscard]] std::optional<unsigned> run_round(
      chan::PrefixChannel& channel) const;

 private:
  PetConfig config_;
  stats::AccuracyRequirement requirement_;
  std::uint64_t planned_rounds_;
};

}  // namespace pet::core

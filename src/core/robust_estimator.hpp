// RobustPetEstimator: an impairment-hardened estimation pipeline layered
// over PetEstimator (see docs/robustness.md).
//
// Vanilla PET trusts every slot: one lost reply turns a busy probe idle and
// biases n̂ low; one noise-floored slot turns an idle probe busy and biases
// n̂ high (bench/robustness_bench.cpp quantifies both).  This wrapper adds
// three defenses, none of which touch the tag side:
//
//  (a) k-of-m voting — every prefix probe is re-read until `vote_quorum`
//      busy reads are seen or enough idle reads make the quorum
//      unreachable, majority scrubbing both error directions.  Re-reads
//      are charged to the channel ledger's retry accounting
//      (SlotLedger::retry_slots) and bounded by a per-estimate budget.
//  (b) robust fusion — the plain mean of per-round depths is replaced by a
//      trimmed mean (or median-of-means if the caller configured one), so
//      a single corrupted round cannot swing n̂ = φ⁻¹·2^{d̄}.
//  (c) channel-health diagnostic — the observed depth sample is KS-tested
//      against the theoretical geometric mixture DepthDistribution(n̂, H);
//      when the channel deviates, the reported confidence interval is
//      widened and the estimate is flagged degraded or contract-at-risk,
//      keeping the (ε, δ) contract honest instead of silently wrong.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "channel/channel.hpp"
#include "core/confidence.hpp"
#include "core/estimator.hpp"
#include "core/theory.hpp"
#include "stats/accuracy.hpp"

namespace pet::core {

struct RobustPetConfig {
  PetConfig base{};  ///< the underlying PET protocol configuration

  /// k-of-m voting: at most `vote_reads` reads per probe, busy iff
  /// `vote_quorum` reads were busy.  `vote_reads = 1` disables voting.
  unsigned vote_reads = 3;
  unsigned vote_quorum = 2;

  /// Per-estimate ceiling on voting re-read slots; once spent, probes fall
  /// back to single reads (and the result says so).
  std::uint64_t retry_budget_slots = UINT64_MAX;

  /// Channel-health KS test: significance level.
  double health_alpha = 0.01;

  void validate() const;
};

/// The channel-health reference sample: this many depth draws from the
/// theory at n̂, whose uniforms come from Xoshiro256ss(kHealthSeed).  The
/// fixed seed makes the diagnostic replay bit for bit.
inline constexpr std::size_t kHealthReferenceDraws = 4096;
inline constexpr std::uint64_t kHealthSeed = 0x6ea17bULL;

enum class ChannelHealth : std::uint8_t {
  kHealthy,         ///< depth sample consistent with the theory
  kDegraded,        ///< deviation detected; interval widened, contract holds
  kContractAtRisk,  ///< widened interval exceeds ε: do not trust (ε, δ)
};

[[nodiscard]] std::string_view to_string(ChannelHealth health) noexcept;

/// Two-sample KS distance between `depths` (each in [0, H]) and the
/// reference sample: kHealthReferenceDraws calls of theory.sample() on
/// Xoshiro256ss(kHealthSeed).  Equal, bit for bit, to the sorting
/// two-sample statistic of stats/ks.hpp over those two samples, at
/// O(H log kHealthReferenceDraws + |depths|) instead of two sorts
/// (docs/robustness.md §3).
[[nodiscard]] double health_ks_distance(std::span<const unsigned> depths,
                                        const DepthDistribution& theory);

/// Outcome of the online channel-health KS diagnostic.
struct ChannelDiagnostic {
  double ks_distance = 0.0;   ///< sup-distance observed vs theoretical depths
  double ks_threshold = 0.0;  ///< critical value at health_alpha
  double widening = 1.0;      ///< interval half-width multiplier applied
  ChannelHealth health = ChannelHealth::kHealthy;

  [[nodiscard]] bool contract_at_risk() const noexcept {
    return health == ChannelHealth::kContractAtRisk;
  }
};

struct RobustEstimateResult {
  EstimateResult base;  ///< robust-fused n̂, depths, rounds, slot ledger

  std::uint64_t reread_slots = 0;      ///< voting re-reads actually spent
  std::uint64_t overturned_probes = 0; ///< probes whose first read lost the vote
  bool retry_budget_exhausted = false;

  ChannelDiagnostic diagnostic;
  ConfidenceInterval interval;  ///< (1 - δ) interval, widened per diagnostic

  [[nodiscard]] double n_hat() const noexcept { return base.n_hat; }
};

class RobustPetEstimator {
 public:
  RobustPetEstimator(RobustPetConfig config,
                     stats::AccuracyRequirement requirement);

  [[nodiscard]] const RobustPetConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint64_t planned_rounds() const noexcept {
    return inner_.planned_rounds();
  }

  /// Run the hardened pipeline end to end: voting probes, robust fusion,
  /// health diagnostic.  Deterministic in (channel state, seed).
  [[nodiscard]] RobustEstimateResult estimate(chan::PrefixChannel& channel,
                                              std::uint64_t seed) const;

  [[nodiscard]] RobustEstimateResult estimate_with_rounds(
      chan::PrefixChannel& channel, std::uint64_t rounds,
      std::uint64_t seed) const;

  /// Gated variant (see PetEstimator::estimate_with_rounds): the gate is
  /// consulted at round boundaries; a truncated run still produces the
  /// voting totals, health diagnostic, and a widened interval over the
  /// rounds that did execute — the pet::svc graceful-degradation path.
  [[nodiscard]] RobustEstimateResult estimate_with_rounds(
      chan::PrefixChannel& channel, std::uint64_t rounds, std::uint64_t seed,
      const RoundGate& gate) const;

 private:
  RobustPetConfig config_;
  stats::AccuracyRequirement requirement_;
  PetEstimator inner_;
};

}  // namespace pet::core

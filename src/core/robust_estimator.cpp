#include "core/robust_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/bitcode.hpp"
#include "common/ensure.hpp"
#include "core/constants.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "rng/prng.hpp"
#include "runtime/json.hpp"
#include "stats/ks.hpp"
#include "stats/normal.hpp"

namespace pet::core {

void RobustPetConfig::validate() const {
  base.validate();
  expects(vote_reads >= 1 && vote_reads <= 15,
          "RobustPetConfig: vote_reads must be in [1, 15]");
  expects(vote_quorum >= 1 && vote_quorum <= vote_reads,
          "RobustPetConfig: vote_quorum must be in [1, vote_reads]");
  expects(health_alpha > 0.0 && health_alpha < 1.0,
          "RobustPetConfig: health_alpha must be in (0, 1)");
}

std::string_view to_string(ChannelHealth health) noexcept {
  switch (health) {
    case ChannelHealth::kHealthy: return "healthy";
    case ChannelHealth::kDegraded: return "degraded";
    case ChannelHealth::kContractAtRisk: return "contract-at-risk";
  }
  return "unknown";
}

namespace {

/// The kHealthReferenceDraws uniforms that theory.sample() inverts when it
/// draws the reference sample, sorted.  They depend on the seed alone, so
/// the table is built once per process and every estimate reads it.
const std::vector<double>& sorted_reference_uniforms() {
  static const std::vector<double> sorted = [] {
    rng::Xoshiro256ss gen(kHealthSeed);
    std::vector<double> uniforms(kHealthReferenceDraws);
    for (double& u : uniforms) u = DepthDistribution::sample_uniform(gen);
    std::sort(uniforms.begin(), uniforms.end());
    return uniforms;
  }();
  return sorted;
}

/// PrefixChannel adapter that turns every probe into an adaptive k-of-m
/// vote.  Reads stop as soon as the verdict is decided: busy once
/// `vote_quorum` busy reads are in, idle once the quorum has become
/// unreachable.  Every read after the first is a re-read charged to the
/// inner channel's retry ledger; when the retry budget runs dry the probe
/// degrades to its first (single) read.
class VotingChannel final : public chan::PrefixChannel {
 public:
  VotingChannel(chan::PrefixChannel& inner, const RobustPetConfig& config)
      : inner_(inner), config_(config),
        retry_budget_left_(config.retry_budget_slots) {}

  void begin_round(const chan::RoundConfig& round) override {
    inner_.begin_round(round);
  }

  bool query_prefix(unsigned len) override {
    const unsigned m = config_.vote_reads;
    const unsigned k = config_.vote_quorum;
    const bool first_read = inner_.query_prefix(len);
    if (m <= 1) return first_read;

    unsigned busy = first_read ? 1 : 0;
    unsigned reads = 1;
    while (busy < k && reads - busy <= m - k) {
      if (retry_budget_left_ == 0) {
        // Budget dry mid-vote: fall back to the single-read verdict.
        if (obs::counters_enabled() && !budget_exhausted_) {
          obs::robust_instruments().budget_exhausted.add();
        }
        budget_exhausted_ = true;
        return first_read;
      }
      --retry_budget_left_;
      inner_.note_retries(1);
      ++reread_slots_;
      if (inner_.query_prefix(len)) ++busy;
      ++reads;
    }
    const bool verdict = busy >= k;
    if (verdict != first_read) {
      ++overturned_probes_;
      if (obs::counters_enabled()) {
        obs::robust_instruments().overturned_probes.add();
      }
      if (obs::full_enabled()) {
        obs::trace_event("robust.probe_overturned",
                         {{"len", std::to_string(len)},
                          {"busy_votes", std::to_string(busy)},
                          {"reads", std::to_string(reads)}});
      }
    }
    return verdict;
  }

  void note_retries(std::uint64_t slots) noexcept override {
    inner_.note_retries(slots);
  }
  [[nodiscard]] const sim::SlotLedger& ledger() const noexcept override {
    return inner_.ledger();
  }
  void reset_ledger() noexcept override { inner_.reset_ledger(); }

  [[nodiscard]] std::uint64_t reread_slots() const noexcept {
    return reread_slots_;
  }
  [[nodiscard]] std::uint64_t overturned_probes() const noexcept {
    return overturned_probes_;
  }
  [[nodiscard]] bool budget_exhausted() const noexcept {
    return budget_exhausted_;
  }

 private:
  chan::PrefixChannel& inner_;
  const RobustPetConfig& config_;
  std::uint64_t retry_budget_left_;
  std::uint64_t reread_slots_ = 0;
  std::uint64_t overturned_probes_ = 0;
  bool budget_exhausted_ = false;
};

/// The inner estimator must not fuse with a plain (or merely
/// bias-corrected) mean — a single corrupted round would swing it.  Robust
/// fusion rules pass through; the others are upgraded to the trimmed mean.
PetConfig robustified(PetConfig base) {
  if (base.fusion == FusionRule::kGeometricMean ||
      base.fusion == FusionRule::kBiasCorrected) {
    base.fusion = FusionRule::kTrimmedMean;
  }
  return base;
}

}  // namespace

// Depths are integers in [0, H], so both empirical CDFs are step functions
// and the distance is a maximum over k = 0..H.  A reference draw has depth
// <= k iff its uniform is <= cdf(k) (sample() returns the first k with
// cdf(k) >= u), so j_k is one upper_bound in the sorted uniforms.  This is
// the maximum the sorting statistic of stats/ks.hpp takes, with the same
// expressions: at a k that neither sample contains, both CDFs repeat their
// values at k - 1 (or are both 0), and past the point where one sample is
// exhausted, where the sorting version stops, the gap can only shrink.
double health_ks_distance(std::span<const unsigned> depths,
                          const DepthDistribution& theory) {
  expects(!depths.empty(), "health_ks_distance: no depths");
  const unsigned height = theory.tree_height();
  std::array<std::size_t, BitCode::kMaxWidth + 1> observed{};
  for (const unsigned depth : depths) {
    expects(depth <= height, "health_ks_distance: depth exceeds H");
    ++observed[depth];
  }
  const std::vector<double>& reference = sorted_reference_uniforms();
  const double na = static_cast<double>(depths.size());
  const double nb = static_cast<double>(reference.size());
  std::size_t i = 0;
  double d = 0.0;
  for (unsigned k = 0; k <= height; ++k) {
    i += observed[k];
    const auto j = static_cast<std::size_t>(
        std::upper_bound(reference.begin(), reference.end(), theory.cdf(k)) -
        reference.begin());
    const double fa = static_cast<double>(i) / na;
    const double fb = static_cast<double>(j) / nb;
    d = std::max(d, std::abs(fa - fb));
  }
  return d;
}

RobustPetEstimator::RobustPetEstimator(RobustPetConfig config,
                                       stats::AccuracyRequirement requirement)
    : config_(std::move(config)), requirement_(requirement),
      inner_(robustified(config_.base), requirement) {
  config_.validate();
  config_.base = inner_.config();  // reflect the fusion upgrade
}

RobustEstimateResult RobustPetEstimator::estimate(chan::PrefixChannel& channel,
                                                  std::uint64_t seed) const {
  return estimate_with_rounds(channel, inner_.planned_rounds(), seed);
}

RobustEstimateResult RobustPetEstimator::estimate_with_rounds(
    chan::PrefixChannel& channel, std::uint64_t rounds,
    std::uint64_t seed) const {
  return estimate_with_rounds(channel, rounds, seed, RoundGate{});
}

RobustEstimateResult RobustPetEstimator::estimate_with_rounds(
    chan::PrefixChannel& channel, std::uint64_t rounds, std::uint64_t seed,
    const RoundGate& gate) const {
  obs::ScopedSpan span("core.robust.estimate");
  RobustEstimateResult result;
  VotingChannel voting(channel, config_);
  result.base = inner_.estimate_with_rounds(voting, rounds, seed, gate);
  result.reread_slots = voting.reread_slots();
  result.overturned_probes = voting.overturned_probes();
  result.retry_budget_exhausted = voting.budget_exhausted();
  if (result.reread_slots != 0 && obs::counters_enabled()) {
    obs::robust_instruments().reread_slots.add(result.reread_slots);
  }

  // --- Channel-health diagnostic -----------------------------------------
  ChannelDiagnostic& diag = result.diagnostic;
  if (result.base.depths.empty() || result.base.n_hat <= 0.0) {
    // Every round certified emptiness: nothing to test, nothing to widen.
    result.interval = ConfidenceInterval{0.0, 0.0, 0.0};
    if (obs::counters_enabled()) {
      obs::robust_instruments().estimates.add();
      obs::robust_instruments().health_healthy.add();
    }
    return result;
  }

  // Test against the theoretical geometric mixture at n = n̂.
  const auto n_ref = static_cast<std::uint64_t>(
      std::max<long long>(1, std::llround(result.base.n_hat)));
  const DepthDistribution theory(n_ref, config_.base.tree_height);
  diag.ks_distance = health_ks_distance(result.base.depths, theory);
  diag.ks_threshold = stats::ks_critical_value(
      result.base.depths.size(), kHealthReferenceDraws, config_.health_alpha);
  diag.widening = std::max(1.0, diag.ks_distance / diag.ks_threshold);
  diag.health = diag.widening > 1.0 ? ChannelHealth::kDegraded
                                    : ChannelHealth::kHealthy;

  // (1 - δ) interval centered on the *robust* point estimate, widened by
  // the diagnostic.  Work in the depth domain where dbar is normal.
  const double m = static_cast<double>(result.base.depths.size());
  const double c = stats::two_sided_normal_constant(requirement_.delta);
  const double half_width = diag.widening * c * kSigmaH / std::sqrt(m);
  // kPhi scaled by the test-only mutation hook so the recentring inverts
  // exactly what estimate_from_mean_depth applied (identity in production).
  const double center =
      std::log2(kPhi * testing::phi_bias_for_tests() * result.base.n_hat);
  result.interval.point = result.base.n_hat;
  result.interval.lo = estimate_from_mean_depth(center - half_width);
  result.interval.hi = estimate_from_mean_depth(center + half_width);

  if (diag.widening > 1.0 &&
      result.interval.relative_half_width() > requirement_.epsilon) {
    diag.health = ChannelHealth::kContractAtRisk;
  }
  if (obs::counters_enabled()) {
    const obs::RobustInstruments& ri = obs::robust_instruments();
    ri.estimates.add();
    ri.widening.observe(diag.widening);
    if (diag.widening > 1.0) ri.ci_widened.add();
    switch (diag.health) {
      case ChannelHealth::kHealthy: ri.health_healthy.add(); break;
      case ChannelHealth::kDegraded: ri.health_degraded.add(); break;
      case ChannelHealth::kContractAtRisk: ri.health_at_risk.add(); break;
    }
  }
  if (obs::full_enabled()) {
    obs::trace_event(
        "robust.health",
        {{"verdict", obs::json_token(to_string(diag.health))},
         {"ks_distance", runtime::json_number(diag.ks_distance, 6)},
         {"widening", runtime::json_number(diag.widening, 6)},
         {"rereads", std::to_string(result.reread_slots)}});
    span.add("rereads", std::to_string(result.reread_slots));
    span.add("overturned", std::to_string(result.overturned_probes));
  }
  return result;
}

}  // namespace pet::core

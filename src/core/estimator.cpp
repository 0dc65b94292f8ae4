#include "core/estimator.hpp"

#include <cmath>

#include "common/ensure.hpp"
#include "core/theory.hpp"
#include "rng/hash_family.hpp"
#include "rng/prng.hpp"

namespace pet::core {

namespace {

// The gray-node descent, generic over how a probe is answered.  Both the
// probed path (PrefixChannel::query_prefix) and the oracle-synthesized path
// (DepthOracle::synth_probe) instantiate this one template, so the two
// necessarily issue the same probe sequence whenever the probe verdicts
// agree -- which they do by the oracle's contract (busy iff len <= d).
// That is the whole bit-identity argument (docs/performance.md).
template <typename Probe>
std::optional<unsigned> descend(unsigned h, SearchMode mode, Probe&& probe) {
  switch (mode) {
    case SearchMode::kLinear: {
      // Algorithm 1: probe 1-, 2-, ... bit prefixes until the first idle
      // slot; the depth is the last responding length.
      for (unsigned j = 1; j <= h; ++j) {
        if (!probe(j)) {
          if (j == 1 && !probe(0u)) return std::nullopt;
          return j - 1;
        }
      }
      return h;
    }
    case SearchMode::kBinaryPaper: {
      // Algorithm 3 verbatim: low/high over [1, H], mid = ceil((lo+hi)/2).
      unsigned low = 1;
      unsigned high = h;
      while (low < high) {
        const unsigned mid = low + (high - low + 1) / 2;
        if (probe(mid)) {
          low = mid;
        } else {
          high = mid - 1;
        }
      }
      // When even the 1-bit prefix is idle the loop converges to low == 1
      // with high == 0; the paper still reports low.  We reproduce that.
      return low;
    }
    case SearchMode::kBinaryStrict: {
      unsigned low = 0;
      unsigned high = h;
      while (low < high) {
        const unsigned mid = low + (high - low + 1) / 2;  // mid >= 1
        if (probe(mid)) {
          low = mid;
        } else {
          high = mid - 1;
        }
      }
      if (low == 0 && !probe(0u)) return std::nullopt;
      return low;
    }
  }
  invariant(false, "descend: unhandled SearchMode");
  return std::nullopt;
}

}  // namespace

std::string_view to_string(SearchMode mode) noexcept {
  switch (mode) {
    case SearchMode::kLinear: return "linear";
    case SearchMode::kBinaryPaper: return "binary-paper";
    case SearchMode::kBinaryStrict: return "binary-strict";
  }
  return "unknown";
}

void PetConfig::validate() const {
  expects(tree_height >= 2 && tree_height <= 64,
          "PetConfig: tree height must be in [2, 64]");
  expects(fusion_trim >= 0.0 && fusion_trim <= 0.5,
          "PetConfig: fusion_trim must be in [0, 0.5]");
}

unsigned PetConfig::worst_case_slots_per_round() const noexcept {
  switch (search) {
    case SearchMode::kLinear:
      return tree_height + 1;
    case SearchMode::kBinaryPaper: {
      // ceil(log2(H)) probes shrink the candidate range [1, H] to one value.
      unsigned bits = 0;
      while ((1u << bits) < tree_height) ++bits;
      return bits;
    }
    case SearchMode::kBinaryStrict: {
      // ceil(log2(H + 1)) probes over [0, H], plus the empty-region probe.
      unsigned bits = 0;
      while ((1u << bits) < tree_height + 1) ++bits;
      return bits + 1;
    }
  }
  return tree_height + 1;
}

PetEstimator::PetEstimator(PetConfig config,
                           stats::AccuracyRequirement requirement)
    : config_(config), requirement_(requirement),
      planned_rounds_(required_rounds(requirement)) {
  config_.validate();
}

std::optional<unsigned> PetEstimator::run_round(
    chan::PrefixChannel& channel) const {
  return descend(config_.tree_height, config_.search,
                 [&channel](unsigned len) { return channel.query_prefix(len); });
}

std::optional<unsigned> PetEstimator::run_round_synth(
    chan::DepthOracle& oracle) const {
  return descend(config_.tree_height, config_.search,
                 [&oracle](unsigned len) { return oracle.synth_probe(len); });
}

EstimateResult PetEstimator::estimate(chan::PrefixChannel& channel,
                                      std::uint64_t seed) const {
  return estimate_with_rounds(channel, planned_rounds_, seed);
}

EstimateResult PetEstimator::estimate_with_rounds(chan::PrefixChannel& channel,
                                                  std::uint64_t rounds,
                                                  std::uint64_t seed) const {
  return estimate_with_rounds(channel, rounds, seed, RoundGate{});
}

EstimateResult PetEstimator::estimate_with_rounds(chan::PrefixChannel& channel,
                                                  std::uint64_t rounds,
                                                  std::uint64_t seed,
                                                  const RoundGate& gate) const {
  expects(rounds >= 1, "estimate_with_rounds: need at least one round");

  const sim::SlotLedger before = channel.ledger();
  EstimateResult result;
  result.depths.reserve(rounds);

  // When the back end can report the round's gray-node depth directly,
  // synthesize the descent instead of probing it.  Identical probe sequence
  // and ledger accounting (see descend / DepthOracle).
  chan::DepthOracle* oracle = dynamic_cast<chan::DepthOracle*>(&channel);

  std::uint64_t executed = 0;
  std::uint64_t empty_rounds = 0;
  double depth_sum = 0.0;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    // The gate never blocks the first round: a gated run always yields at
    // least one observation, so a truncated result is still an estimate.
    if (i > 0 && gate && !gate(i)) {
      result.truncated = true;
      break;
    }
    const std::uint64_t path_seed = rng::derive_seed(seed, 2 * i);
    const std::uint64_t round_seed = rng::derive_seed(seed, 2 * i + 1);
    const BitCode path = rng::uniform_code(rng::HashKind::kMix64, path_seed,
                                           0xbad9e7ULL, config_.tree_height);
    channel.begin_round(chan::RoundConfig{path, round_seed,
                                          config_.tags_rehash,
                                          config_.begin_bits(),
                                          config_.query_bits()});
    const auto depth = oracle ? run_round_synth(*oracle) : run_round(channel);
    ++executed;
    if (!depth.has_value()) {
      // Verifiably empty region this round: recorded as a zero depth (the
      // fusion identity) unless every round agrees the region is empty.
      ++empty_rounds;
      result.depths.push_back(0);
      continue;
    }
    result.depths.push_back(*depth);
    depth_sum += static_cast<double>(*depth);
  }

  result.rounds = executed;
  if (empty_rounds == executed) {
    // Every round certified emptiness: the estimate is exactly zero.
    result.depths.clear();
    result.n_hat = 0.0;
    result.mean_depth = 0.0;
  } else {
    result.mean_depth = depth_sum / static_cast<double>(executed);
    result.n_hat = fuse_depths(result.depths, config_.fusion,
                               config_.fusion_groups, config_.fusion_trim,
                               config_.tree_height);
  }

  result.ledger = channel.ledger() - before;
  return result;
}

}  // namespace pet::core

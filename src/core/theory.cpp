#include "core/theory.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/ensure.hpp"
#include "core/constants.hpp"
#include "stats/normal.hpp"

namespace pet::core {

DepthDistribution::DepthDistribution(std::uint64_t n, unsigned tree_height)
    : n_(n), tree_height_(tree_height) {
  expects(tree_height >= 1 && tree_height <= 64,
          "DepthDistribution: tree height must be in [1, 64]");
  cdf_.resize(tree_height + 1);
  const double dn = static_cast<double>(n);
  for (unsigned k = 0; k < tree_height; ++k) {
    // P(d <= k) = P(no tag matches a (k+1)-bit prefix) = (1 - 2^-(k+1))^n.
    cdf_[k] = (n == 0) ? 1.0
                       : std::pow(1.0 - std::ldexp(1.0, -(static_cast<int>(k) + 1)),
                                  dn);
  }
  cdf_[tree_height] = 1.0;

  double mean = 0.0;
  double second = 0.0;
  double prev = 0.0;
  for (unsigned k = 0; k <= tree_height; ++k) {
    const double p = cdf_[k] - prev;
    prev = cdf_[k];
    mean += p * k;
    second += p * static_cast<double>(k) * static_cast<double>(k);
  }
  mean_ = mean;
  stddev_ = std::sqrt(std::max(0.0, second - mean * mean));
}

double DepthDistribution::pmf(unsigned k) const {
  expects(k <= tree_height_, "pmf: k exceeds tree height");
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

double DepthDistribution::cdf(unsigned k) const {
  expects(k <= tree_height_, "cdf: k exceeds tree height");
  return cdf_[k];
}

unsigned DepthDistribution::sample(rng::Xoshiro256ss& gen) const {
  const double u = sample_uniform(gen);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<unsigned>(it - cdf_.begin());
}

double DepthDistribution::sample_uniform(rng::Xoshiro256ss& gen) noexcept {
  double u;
  do {
    u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
  } while (u <= 0.0);
  return u;
}

double asymptotic_mean_depth(double n) {
  expects(n > 0.0, "asymptotic_mean_depth: n must be positive");
  return std::log2(kPhi * n);
}

double expected_gray_height_eq6(std::uint64_t n, unsigned tree_height) {
  expects(tree_height >= 1 && tree_height <= 64,
          "expected_gray_height_eq6: tree height must be in [1, 64]");
  // p = (1 - 2^-H)^n, computed in log space to survive H = 64.
  const double log_p = static_cast<double>(n) *
                       std::log1p(-std::ldexp(1.0, -static_cast<int>(tree_height)));
  double sum = 0.0;
  for (unsigned k = 0; k < tree_height; ++k) {
    sum += std::exp(std::ldexp(1.0, static_cast<int>(k)) * log_p);
  }
  const double p_pow_2h =
      std::exp(std::ldexp(1.0, static_cast<int>(tree_height)) * log_p);
  return -static_cast<double>(tree_height) * p_pow_2h + sum;
}

namespace testing {

namespace {
// Relaxed atomic: armed once in a test main before any trial threads spawn,
// read-only afterwards, so trial code stays data-race-free under TSan.
std::atomic<double> g_phi_bias{1.0};
}  // namespace

void set_phi_bias_for_tests(double multiplier) noexcept {
  g_phi_bias.store(multiplier, std::memory_order_relaxed);
}

double phi_bias_for_tests() noexcept {
  return g_phi_bias.load(std::memory_order_relaxed);
}

}  // namespace testing

double estimate_from_mean_depth(double mean_depth) {
  return std::exp2(mean_depth) / (kPhi * testing::phi_bias_for_tests());
}

std::uint64_t required_rounds(const stats::AccuracyRequirement& req) {
  req.validate();
  const double c = stats::two_sided_normal_constant(req.delta);
  const double lo = c * kSigmaH / std::abs(std::log2(1.0 - req.epsilon));
  const double hi = c * kSigmaH / std::log2(1.0 + req.epsilon);
  const double m = std::max(lo * lo, hi * hi);
  return static_cast<std::uint64_t>(std::ceil(m));
}

TheoreticalPet::TheoreticalPet(std::uint64_t n, unsigned tree_height,
                               std::uint64_t rounds)
    : depth_(n, tree_height), rounds_(rounds) {
  expects(rounds >= 1, "TheoreticalPet: need at least one round");
}

double TheoreticalPet::sample_estimate(rng::Xoshiro256ss& gen) const {
  double sum = 0.0;
  for (std::uint64_t i = 0; i < rounds_; ++i) {
    sum += static_cast<double>(depth_.sample(gen));
  }
  return estimate_from_mean_depth(sum / static_cast<double>(rounds_));
}

}  // namespace pet::core

// Exact and asymptotic theory of the PET observation (Section 4.2).
//
// Everything is phrased in terms of the prefix depth d = H - h (h being the
// paper's gray-node height); see DESIGN.md for the notation reconciliation.
// For n tags with independent uniform H-bit codes and any estimating path,
//     P(d >= k) = 1 - (1 - 2^-k)^n,                       k = 0..H,
// which is the exact finite-n form of the paper's Eq. (5).
#pragma once

#include <cstdint>
#include <vector>

#include "rng/prng.hpp"
#include "stats/accuracy.hpp"

namespace pet::core {

/// Exact distribution of the per-round prefix depth.
class DepthDistribution {
 public:
  DepthDistribution(std::uint64_t n, unsigned tree_height);

  [[nodiscard]] unsigned tree_height() const noexcept { return tree_height_; }
  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

  /// P(d = k), k in [0, H].
  [[nodiscard]] double pmf(unsigned k) const;
  /// P(d <= k), k in [0, H].
  [[nodiscard]] double cdf(unsigned k) const;

  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double stddev() const noexcept { return stddev_; }

  /// Draw one depth observation by inverse transform (exact): the first k
  /// with cdf(k) >= sample_uniform(gen).
  [[nodiscard]] unsigned sample(rng::Xoshiro256ss& gen) const;

  /// The uniform in (0, 1) that sample() inverts; it consumes the same
  /// generator outputs and does not depend on n or H.
  [[nodiscard]] static double sample_uniform(rng::Xoshiro256ss& gen) noexcept;

 private:
  std::uint64_t n_;
  unsigned tree_height_;
  std::vector<double> cdf_;  ///< cdf_[k] = P(d <= k)
  double mean_ = 0.0;
  double stddev_ = 0.0;
};

/// Asymptotic mean depth, Eq. (9) recast: E(d) ~= log2(phi * n).
[[nodiscard]] double asymptotic_mean_depth(double n);

/// The paper's Eq. (6) verbatim: E(h) = -H p^(2^H) + sum_{k=0}^{H-1} p^(2^k)
/// with p = (1 - 2^-H)^n, the expected gray-node height.  Uses the paper's
/// leaf-occupancy approximation (independent subtree whiteness), so it
/// differs from the exact H - E(d) by O(1/n) terms; exposed to validate
/// that both derivations agree.
[[nodiscard]] double expected_gray_height_eq6(std::uint64_t n,
                                              unsigned tree_height);

/// The depth -> cardinality estimator of Eq. (14): n̂ = 2^dbar / phi.
[[nodiscard]] double estimate_from_mean_depth(double mean_depth);

namespace testing {

/// Test-only mutation hook for the conformance harness (tools/petverify
/// --inject-phi-bias): multiplies the phi used by the *estimator* read-out
/// path (estimate_from_mean_depth and the robust interval recentring) by
/// `multiplier`, deliberately mis-biasing every estimate while leaving the
/// DepthDistribution oracle untouched.  The mutation smoke test proves the
/// calibration checks detect such a real bias rather than passing on noise.
/// Never call from production code; 1.0 restores correctness.
void set_phi_bias_for_tests(double multiplier) noexcept;
[[nodiscard]] double phi_bias_for_tests() noexcept;

/// RAII guard used by unit tests so a failing assertion cannot leak the
/// mutation into later tests.
class ScopedPhiBias {
 public:
  explicit ScopedPhiBias(double multiplier) noexcept {
    set_phi_bias_for_tests(multiplier);
  }
  ~ScopedPhiBias() { set_phi_bias_for_tests(1.0); }
  ScopedPhiBias(const ScopedPhiBias&) = delete;
  ScopedPhiBias& operator=(const ScopedPhiBias&) = delete;
};

}  // namespace testing

/// Rounds required by Eq. (20) for the (epsilon, delta) contract, using the
/// asymptotic sigma(h).
[[nodiscard]] std::uint64_t required_rounds(
    const stats::AccuracyRequirement& req);

/// Idealized m-round PET estimate drawn from the exact depth distribution
/// (independent rounds).  This is the paper's "theoretical performance of
/// PET" curve in Fig. 6a: the analysis' model, free of the shared-code
/// dependence of the preloaded protocol.
class TheoreticalPet {
 public:
  TheoreticalPet(std::uint64_t n, unsigned tree_height, std::uint64_t rounds);

  [[nodiscard]] double sample_estimate(rng::Xoshiro256ss& gen) const;

 private:
  DepthDistribution depth_;
  std::uint64_t rounds_;
};

}  // namespace pet::core

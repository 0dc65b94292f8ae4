#include "core/monitor.hpp"

#include <cmath>

#include "common/ensure.hpp"
#include "core/constants.hpp"
#include "core/theory.hpp"

namespace pet::core {

void MonitorConfig::validate() const {
  pet.validate();
  expects(window_rounds >= 8, "monitor window must hold >= 8 rounds");
  expects(recent_rounds >= 4 && recent_rounds <= window_rounds / 2,
          "recent span must be in [4, window/2]");
  expects(change_threshold_sigmas > 0.0,
          "change threshold must be positive");
  expects(!pet.tags_rehash,
          "the monitor assumes preloaded codes (passive-tag deployments)");
}

StreamingMonitor::StreamingMonitor(MonitorConfig config, std::uint64_t seed)
    : config_(config), seed_(seed),
      estimator_(config.pet, stats::AccuracyRequirement{0.5, 0.5}) {
  config_.validate();
}

bool StreamingMonitor::tick(chan::PrefixChannel& channel) {
  const auto depth = estimator_.run_round(channel, seed_, ticks_);
  ++ticks_;

  window_.push_back(depth.value_or(0));
  if (window_.size() > config_.window_rounds) window_.pop_front();

  // Change detection: compare the recent span's mean depth against the
  // rest of the window.  Under a stable population both are draws from the
  // same law with per-round deviation sigma(h).
  if (window_.size() < 2 * config_.recent_rounds) return false;

  const std::size_t recent = config_.recent_rounds;
  double recent_sum = 0.0;
  double old_sum = 0.0;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    if (i + recent >= window_.size()) {
      recent_sum += window_[i];
    } else {
      old_sum += window_[i];
    }
  }
  const double old_count = static_cast<double>(window_.size() - recent);
  const double recent_mean = recent_sum / static_cast<double>(recent);
  const double old_mean = old_sum / old_count;
  const double se = kSigmaH * std::sqrt(1.0 / static_cast<double>(recent) +
                                        1.0 / old_count);
  if (std::abs(recent_mean - old_mean) <=
      config_.change_threshold_sigmas * se) {
    return false;
  }

  // Change confirmed: drop the stale prefix so the estimate tracks the new
  // population instead of averaging across the step.
  while (window_.size() > recent) window_.pop_front();
  ++changes_;
  return true;
}

EstimateResult StreamingMonitor::window_as_result() const {
  EstimateResult result;
  result.rounds = window_.size();
  result.depths.assign(window_.begin(), window_.end());
  double sum = 0.0;
  for (const unsigned d : window_) sum += static_cast<double>(d);
  result.mean_depth = sum / static_cast<double>(window_.size());
  result.n_hat = estimate_from_mean_depth(result.mean_depth);
  return result;
}

std::optional<double> StreamingMonitor::estimate() const {
  if (window_.size() < config_.recent_rounds) return std::nullopt;
  return window_as_result().n_hat;
}

std::optional<ConfidenceInterval> StreamingMonitor::interval(
    double delta) const {
  if (window_.size() < config_.recent_rounds) return std::nullopt;
  return confidence_interval(window_as_result(), delta);
}

}  // namespace pet::core

// StreamingMonitor: continuous cardinality tracking over a dynamic tag
// population (the Section 3 "dynamic tag set" requirement, operationalized).
//
// Instead of blocking for a full m-round estimate, the monitor spends a few
// slots per tick (one PET round), keeps a sliding window of the most recent
// depth observations, and exposes a running estimate with a confidence
// interval.  A change detector flags when the recent depths are
// statistically inconsistent with the window — e.g. a convoy of tagged
// pallets arriving — so callers can trigger a full-accuracy audit.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "channel/channel.hpp"
#include "core/confidence.hpp"
#include "core/estimator.hpp"

namespace pet::core {

struct MonitorConfig {
  PetConfig pet{};
  std::size_t window_rounds = 256;   ///< sliding window size
  std::size_t recent_rounds = 32;    ///< change-detector comparison span
  /// Flag a change when the recent mean depth deviates from the window mean
  /// by more than this many standard errors.
  double change_threshold_sigmas = 3.0;

  void validate() const;
};

class StreamingMonitor {
 public:
  explicit StreamingMonitor(MonitorConfig config, std::uint64_t seed);

  /// Spend one PET round on the channel; returns true when the change
  /// detector fired on this tick (the window is then reseeded from the
  /// recent observations so the estimate re-converges quickly).
  bool tick(chan::PrefixChannel& channel);

  /// Rounds observed since construction.
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }

  /// Rounds currently contributing to the estimate.
  [[nodiscard]] std::size_t window_fill() const noexcept {
    return window_.size();
  }

  /// Running estimate over the current window; nullopt until at least
  /// `recent_rounds` observations have accumulated.
  [[nodiscard]] std::optional<double> estimate() const;

  /// Confidence interval of the running estimate at level 1 - delta.
  [[nodiscard]] std::optional<ConfidenceInterval> interval(double delta) const;

  /// Number of change events flagged so far.
  [[nodiscard]] std::uint64_t changes_detected() const noexcept {
    return changes_;
  }

  /// The current window as an estimate: its depths in tick order, their
  /// mean and the n̂ that estimate() reports.
  [[nodiscard]] EstimateResult window_as_result() const;

 private:
  MonitorConfig config_;
  std::uint64_t seed_;
  std::uint64_t ticks_ = 0;
  std::uint64_t changes_ = 0;
  PetEstimator estimator_;
  std::deque<unsigned> window_;
};

}  // namespace pet::core

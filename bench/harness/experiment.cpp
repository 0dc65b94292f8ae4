#include "harness/experiment.hpp"

#include <chrono>

#include "channel/arena.hpp"
#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "obs/profile.hpp"
#include "rng/prng.hpp"
#include "runtime/trial_runner.hpp"
#include "tags/population.hpp"

namespace pet::bench {

namespace {

/// Stopwatch splitting one trial into its build and estimate phases for the
/// process-wide obs::SweepPhase totals (the artifact "profile" member).
class PhaseSplit {
 public:
  PhaseSplit() : begin_(std::chrono::steady_clock::now()) {}

  /// Call between channel acquisition and estimation.
  void built() noexcept {
    split_ = std::chrono::steady_clock::now();
    obs::add_sweep_phase_seconds(
        obs::SweepPhase::kBuild,
        std::chrono::duration<double>(split_ - begin_).count());
  }

  ~PhaseSplit() {
    obs::add_sweep_phase_seconds(
        obs::SweepPhase::kEstimate,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      split_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point begin_;
  std::chrono::steady_clock::time_point split_{begin_};
};


void absorb(TrialSet& set, double n_hat, const sim::SlotLedger& ledger,
            std::uint64_t runs) {
  set.summary.add(n_hat);
  set.mean_slots_per_estimate +=
      static_cast<double>(ledger.total_slots()) / static_cast<double>(runs);
  set.mean_reader_bits +=
      static_cast<double>(ledger.reader_bits) / static_cast<double>(runs);
}

/// Shard `runs` independent trials across the global runner and fold them
/// in trial order — bit-identical to the serial loop this replaced, for
/// any thread count (docs/runtime.md).
template <typename Trial>
TrialSet aggregate(std::uint64_t n, std::uint64_t runs, const char* label,
                   Trial&& trial) {
  TrialSet set(static_cast<double>(n));
  runtime::global_runner().run<core::EstimateResult>(
      runs, std::forward<Trial>(trial),
      [&](std::uint64_t, core::EstimateResult&& result) {
        absorb(set, result.n_hat, result.ledger, runs);
      },
      label);
  return set;
}

/// One driver for every rehash-per-round baseline: they differ only in the
/// estimator type, the seed stride (kept from the historical serial code so
/// published numbers do not move) and whether a round override exists.
template <typename Estimator>
TrialSet run_sampled(std::uint64_t n, const Estimator& estimator,
                     std::uint64_t rounds, std::uint64_t runs,
                     std::uint64_t seed, std::uint64_t stride,
                     const char* label) {
  return aggregate(n, runs, label, [&estimator, n, rounds, seed,
                                    stride](std::uint64_t run) {
    PhaseSplit phases;
    // The arena channel is bit-identical to a per-trial construction
    // (reset() reinstates the freshly-constructed state).
    const std::uint64_t chan_seed = rng::derive_seed(seed, stride * run);
    chan::SampledChannel& channel = chan::arena_sampled_channel(n, chan_seed);
    phases.built();
    const std::uint64_t est_seed = rng::derive_seed(seed, stride * run + 1);
    if constexpr (requires {
                    estimator.estimate_with_rounds(channel, rounds, est_seed);
                  }) {
      if (rounds != 0) {
        return estimator.estimate_with_rounds(channel, rounds, est_seed);
      }
    }
    return estimator.estimate(channel, est_seed);
  });
}

}  // namespace

TrialSet run_pet(std::uint64_t n, const core::PetConfig& config,
                 const stats::AccuracyRequirement& req, std::uint64_t rounds,
                 std::uint64_t runs, std::uint64_t seed) {
  const core::PetEstimator estimator(config, req);
  const std::uint64_t m = rounds == 0 ? estimator.planned_rounds() : rounds;

  // Tag IDs are arbitrary; the per-run randomness is the manufacturing
  // seed (fresh preloaded codes) plus the reader's estimating paths.
  const auto pop = tags::TagPopulation::generate(n, 0xdecafULL);

  return aggregate(n, runs, "PET", [&estimator, &pop, &config, m,
                                    seed](std::uint64_t run) {
    PhaseSplit phases;
    chan::SortedPetChannelConfig channel_config;
    channel_config.tree_height = config.tree_height;
    channel_config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
    chan::SortedPetChannel& channel =
        chan::arena_sorted_pet_channel(pop.ids(), channel_config);
    phases.built();
    auto result = estimator.estimate_with_rounds(
        channel, m, rng::derive_seed(seed, 2 * run + 1));
    // The arena channel outlives the trial, so publish the final round's
    // obs delta now — metric snapshots taken at session finish must not
    // wait for the next trial's rebuild.
    channel.flush_obs();
    return result;
  });
}

TrialSet run_fneb(std::uint64_t n, const proto::FnebConfig& config,
                  const stats::AccuracyRequirement& req, std::uint64_t rounds,
                  std::uint64_t runs, std::uint64_t seed) {
  const proto::FnebEstimator estimator(config, req);
  const std::uint64_t m = rounds == 0 ? estimator.planned_rounds() : rounds;
  return run_sampled(n, estimator, m, runs, seed, 3, "FNEB");
}

TrialSet run_lof(std::uint64_t n, const proto::LofConfig& config,
                 const stats::AccuracyRequirement& req, std::uint64_t rounds,
                 std::uint64_t runs, std::uint64_t seed) {
  const proto::LofEstimator estimator(config, req);
  const std::uint64_t m = rounds == 0 ? estimator.planned_rounds() : rounds;
  return run_sampled(n, estimator, m, runs, seed, 5, "LoF");
}

TrialSet run_upe(std::uint64_t n, const proto::UpeConfig& config,
                 const stats::AccuracyRequirement& req, std::uint64_t runs,
                 std::uint64_t seed) {
  const proto::UpeEstimator estimator(config, req);
  return run_sampled(n, estimator, 0, runs, seed, 7, "UPE");
}

TrialSet run_ezb(std::uint64_t n, const proto::EzbConfig& config,
                 const stats::AccuracyRequirement& req, std::uint64_t runs,
                 std::uint64_t seed) {
  const proto::EzbEstimator estimator(config, req);
  return run_sampled(n, estimator, 0, runs, seed, 11, "EZB");
}

}  // namespace pet::bench

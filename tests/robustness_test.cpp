// The robustness subsystem end to end: fault injection (sim/faults.hpp via
// Medium/DeviceChannel), the hardened estimation pipeline
// (core::RobustPetEstimator), robust fusion, retry accounting, and the
// channel-health diagnostic — including the bit-for-bit replay guarantee
// every fault scenario carries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "channel/device_channel.hpp"
#include "common/ensure.hpp"
#include "core/constants.hpp"
#include "core/estimator.hpp"
#include "core/fusion.hpp"
#include "core/robust_estimator.hpp"
#include "core/theory.hpp"
#include "multireader/controller.hpp"
#include "rng/prng.hpp"
#include "stats/ks.hpp"
#include "tags/population.hpp"

namespace pet {
namespace {

chan::DeviceChannelConfig lossy_device(double loss, std::uint64_t seed) {
  chan::DeviceChannelConfig config;
  config.manufacturing_seed = rng::derive_seed(seed, 1);
  config.impairments.reply_loss_prob = loss;
  config.impairments.seed = rng::derive_seed(seed, 2);
  return config;
}

TEST(RobustPetConfig, RejectsInconsistentVoting) {
  const stats::AccuracyRequirement req{0.1, 0.05};
  core::RobustPetConfig quorum_too_big;
  quorum_too_big.vote_reads = 3;
  quorum_too_big.vote_quorum = 4;
  EXPECT_THROW(core::RobustPetEstimator(quorum_too_big, req),
               PreconditionError);

  core::RobustPetConfig zero_reads;
  zero_reads.vote_reads = 0;
  EXPECT_THROW(core::RobustPetEstimator(zero_reads, req), PreconditionError);

  core::RobustPetConfig bad_alpha;
  bad_alpha.health_alpha = 1.0;
  EXPECT_THROW(core::RobustPetEstimator(bad_alpha, req), PreconditionError);
}

TEST(RobustPetConfig, UpgradesPlainMeanFusionToTrimmedMean) {
  const stats::AccuracyRequirement req{0.1, 0.05};
  core::RobustPetConfig config;  // base.fusion defaults to kGeometricMean
  core::RobustPetEstimator estimator(config, req);
  EXPECT_EQ(estimator.config().base.fusion, core::FusionRule::kTrimmedMean);

  core::RobustPetConfig mom;
  mom.base.fusion = core::FusionRule::kMedianOfMeans;
  core::RobustPetEstimator mom_estimator(mom, req);
  EXPECT_EQ(mom_estimator.config().base.fusion,
            core::FusionRule::kMedianOfMeans);
}

TEST(TrimmedMeanFusion, MatchesGeometricMeanWithoutTrim) {
  const std::vector<unsigned> depths{9, 10, 10, 11, 10, 9, 11, 10};
  EXPECT_DOUBLE_EQ(
      core::fuse_depths(depths, core::FusionRule::kTrimmedMean, 16, 0.0),
      core::fuse_depths(depths, core::FusionRule::kGeometricMean));
}

TEST(TrimmedMeanFusion, SingleCorruptedRoundCannotSwingTheEstimate) {
  // 19 clean rounds at depth 10, one round corrupted to the tree ceiling
  // by a noise burst.  The trim must delete the outlier entirely: the
  // corrupted sample fuses to *exactly* what the clean one does.
  const std::vector<unsigned> clean(20, 10);
  std::vector<unsigned> corrupted(19, 10);
  corrupted.push_back(32);
  const double plain_clean =
      core::fuse_depths(clean, core::FusionRule::kGeometricMean);
  const double plain =
      core::fuse_depths(corrupted, core::FusionRule::kGeometricMean);
  EXPECT_GT(plain, 2.0 * plain_clean) << "plain mean doubles the estimate";
  EXPECT_DOUBLE_EQ(
      core::fuse_depths(corrupted, core::FusionRule::kTrimmedMean, 16, 0.1),
      core::fuse_depths(clean, core::FusionRule::kTrimmedMean, 16, 0.1))
      << "trimmed mean shrugs the outlier off";
}

TEST(TrimmedMeanFusion, FullTrimIsTheMedianDepth) {
  // At f = 0.5 only the median depth survives, so any sample with the same
  // median fuses identically — the wild 30 is invisible.
  const std::vector<unsigned> depths{1, 2, 30, 2, 1, 2, 3};
  const std::vector<unsigned> all_median(7, 2);
  EXPECT_DOUBLE_EQ(
      core::fuse_depths(depths, core::FusionRule::kTrimmedMean, 16, 0.5),
      core::fuse_depths(all_median, core::FusionRule::kTrimmedMean, 16, 0.5));
}

TEST(TrimmedMeanFusion, CalibrationUndoesTheSkewOfTheDepthLaw) {
  // The depth law is right-skewed, so symmetric trimming lowers the sample
  // mean; reading the trimmed mean through Eq. (14) naively would land
  // ~11% low.  On a clean theoretical sample the calibrated trimmed mean
  // must agree with the plain geometric mean instead.
  const std::uint64_t n = 1000;
  const core::DepthDistribution dist(n, 32);
  rng::Xoshiro256ss gen(4242);
  std::vector<unsigned> depths(4000);
  for (auto& d : depths) d = dist.sample(gen);
  const double plain =
      core::fuse_depths(depths, core::FusionRule::kGeometricMean);
  const double trimmed =
      core::fuse_depths(depths, core::FusionRule::kTrimmedMean, 16, 0.1);
  EXPECT_NEAR(trimmed, plain, 0.05 * plain);
  EXPECT_NEAR(trimmed, static_cast<double>(n), 0.1 * static_cast<double>(n));
}

TEST(RobustPetEstimator, CleanChannelIsHealthyAndMatchesContract) {
  const std::uint64_t n = 500;
  const auto pop = tags::TagPopulation::generate(n, 11);
  const stats::AccuracyRequirement req{0.1, 0.05};
  core::RobustPetEstimator estimator(core::RobustPetConfig{}, req);
  chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet,
                              lossy_device(0.0, 21));
  const auto result = estimator.estimate(channel, 5);
  EXPECT_EQ(result.diagnostic.health, core::ChannelHealth::kHealthy);
  EXPECT_DOUBLE_EQ(result.diagnostic.widening, 1.0);
  EXPECT_NEAR(result.n_hat(), static_cast<double>(n), 0.1 * n);
  EXPECT_TRUE(result.interval.contains(static_cast<double>(n)));
  EXPECT_FALSE(result.retry_budget_exhausted);
}

TEST(RobustPetEstimator, VotingScrubsReplyLossThatBreaksVanilla) {
  const std::uint64_t n = 500;
  const auto pop = tags::TagPopulation::generate(n, 13);
  const stats::AccuracyRequirement req{0.1, 0.05};
  const double loss = 0.35;

  const core::PetEstimator vanilla(core::PetConfig{}, req);
  chan::DeviceChannel vanilla_channel(pop.ids(), chan::DeviceKind::kPet,
                                      lossy_device(loss, 31));
  const auto vanilla_result = vanilla.estimate(vanilla_channel, 5);

  // Loss-dominated channel and no noise floor: a busy read can only be
  // genuine, so the right vote is an OR over up to 5 reads (quorum 1).
  core::RobustPetConfig config;
  config.vote_reads = 5;
  config.vote_quorum = 1;
  core::RobustPetEstimator robust(config, req);
  chan::DeviceChannel robust_channel(pop.ids(), chan::DeviceKind::kPet,
                                     lossy_device(loss, 31));
  const auto robust_result = robust.estimate(robust_channel, 5);

  const double truth = static_cast<double>(n);
  EXPECT_LT(vanilla_result.n_hat, 0.8 * truth)
      << "reply loss biases vanilla PET low";
  EXPECT_NEAR(robust_result.n_hat(), truth, 0.15 * truth)
      << "k-of-m voting recovers the estimate";
  EXPECT_LT(std::abs(robust_result.n_hat() - truth),
            std::abs(vanilla_result.n_hat - truth));
  EXPECT_GT(robust_result.reread_slots, 0u);
  EXPECT_GT(robust_result.overturned_probes, 0u);
}

TEST(RobustPetEstimator, RetriesAreChargedToTheChannelLedger) {
  const auto pop = tags::TagPopulation::generate(300, 17);
  const stats::AccuracyRequirement req{0.1, 0.05};
  core::RobustPetEstimator estimator(core::RobustPetConfig{}, req);
  chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet,
                              lossy_device(0.2, 41));
  const auto result = estimator.estimate_with_rounds(channel, 64, 5);
  EXPECT_GT(result.reread_slots, 0u);
  EXPECT_EQ(result.base.ledger.retry_slots, result.reread_slots);
  // Re-reads are real slots: they are part of the total, tagged on top.
  EXPECT_GT(result.base.ledger.total_slots(), result.reread_slots);
}

TEST(RobustPetEstimator, RetryBudgetIsAHardCeiling) {
  const auto pop = tags::TagPopulation::generate(300, 17);
  const stats::AccuracyRequirement req{0.1, 0.05};
  core::RobustPetConfig config;
  config.retry_budget_slots = 5;
  core::RobustPetEstimator estimator(config, req);
  chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet,
                              lossy_device(0.2, 43));
  const auto result = estimator.estimate_with_rounds(channel, 64, 5);
  EXPECT_LE(result.reread_slots, 5u);
  EXPECT_TRUE(result.retry_budget_exhausted);
  EXPECT_EQ(result.base.ledger.retry_slots, result.reread_slots);
}

TEST(RobustPetEstimator, FlagsChannelWhoseDepthsDeviateFromTheory) {
  // Uniform iid loss merely mimics a smaller population — the depth sample
  // still matches theory at the (wrong) n̂, and no shape test can see it.
  // Bursty loss is different: rounds hit by a bad-state burst truncate
  // while clean rounds don't, and the resulting mixture is wider than any
  // theoretical depth law.  Voting is disabled so the corruption reaches
  // the sample unscrubbed: the KS diagnostic must notice on its own.
  const auto pop = tags::TagPopulation::generate(800, 19);
  const stats::AccuracyRequirement req{0.1, 0.05};
  core::RobustPetConfig config;
  config.vote_reads = 1;
  config.vote_quorum = 1;
  core::RobustPetEstimator estimator(config, req);
  auto device = lossy_device(0.0, 47);
  device.impairments.burst =
      sim::GilbertElliottParams{0.05, 0.15, 0.0, 1.0, false};
  chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet, device);
  const auto result = estimator.estimate(channel, 5);
  EXPECT_NE(result.diagnostic.health, core::ChannelHealth::kHealthy);
  EXPECT_GT(result.diagnostic.widening, 1.0);
  EXPECT_GT(result.diagnostic.ks_distance, result.diagnostic.ks_threshold);
  // The widened interval is honest where the point estimate is not.
  EXPECT_GT(result.interval.hi - result.interval.lo,
            0.2 * result.n_hat());
}

TEST(RobustPetEstimator, CertifiedEmptyRegionReportsZero) {
  const stats::AccuracyRequirement req{0.1, 0.05};
  core::RobustPetConfig config;
  config.base.search = core::SearchMode::kBinaryStrict;
  core::RobustPetEstimator estimator(config, req);
  chan::DeviceChannel channel({}, chan::DeviceKind::kPet,
                              lossy_device(0.0, 53));
  const auto result = estimator.estimate_with_rounds(channel, 16, 5);
  EXPECT_EQ(result.n_hat(), 0.0);
  EXPECT_EQ(result.interval.lo, 0.0);
  EXPECT_EQ(result.interval.hi, 0.0);
  EXPECT_EQ(result.diagnostic.health, core::ChannelHealth::kHealthy);
}

// The health diagnostic's histogram KS against its definition: the sorting
// two-sample statistic over the observed depths and kHealthReferenceDraws
// theory.sample() draws from Xoshiro256ss(kHealthSeed), equal bit for bit.
// The depths are drawn at a population other than n̂, with a tenth of them
// replaced by uniform values in [0, H], so the two samples differ the way a
// degraded channel makes them differ.  One case in ten is all 0, and one
// all H.
TEST(RobustHealth, HistogramKsMatchesSortedKsBitForBit) {
  const unsigned heights[] = {16, 32, 64};
  rng::SplitMix64 gen(0x4157c0deULL);
  const auto unit = [&gen] {
    return static_cast<double>(gen() >> 11) * 0x1.0p-53;
  };
  std::vector<unsigned> depths;
  std::vector<double> observed;
  std::vector<double> reference(core::kHealthReferenceDraws);
  for (int c = 0; c < 3000; ++c) {
    const unsigned height = heights[c % 3];
    const auto n_hat = static_cast<std::uint64_t>(std::exp2(40.0 * unit()));
    const core::DepthDistribution theory(n_hat, height);
    const auto n_drawn = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(n_hat) *
                                      std::exp2(6.0 * unit() - 3.0)));
    const core::DepthDistribution drawn(
        n_drawn == n_hat ? n_hat + 1 : n_drawn, height);
    rng::Xoshiro256ss depth_gen(gen());

    depths.resize(1 + gen() % 2000);
    for (unsigned& depth : depths) {
      switch (c % 10) {
        case 3: depth = 0; break;
        case 7: depth = height; break;
        default:
          depth = gen() % 10 == 0 ? static_cast<unsigned>(gen() % (height + 1))
                                  : drawn.sample(depth_gen);
      }
    }
    observed.assign(depths.begin(), depths.end());
    rng::Xoshiro256ss reference_gen(core::kHealthSeed);
    for (double& draw : reference) {
      draw = static_cast<double>(theory.sample(reference_gen));
    }

    const double want = stats::ks_statistic(observed, reference);
    const double got = core::health_ks_distance(depths, theory);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "case " << c << ": H=" << height << " n_hat=" << n_hat
        << " m=" << depths.size() << " got=" << got << " want=" << want;
  }
}

/// Acceptance criterion: a full fault cocktail — bursty loss, noise
/// transients, a mid-session reader crash, tag churn between rounds —
/// replays bit-for-bit from the same seeds: identical SlotLedger,
/// identical n̂.
TEST(RobustnessReplay, FaultScenarioReplaysBitForBit) {
  const auto pop = tags::TagPopulation::generate(400, 23);
  const stats::AccuracyRequirement req{0.1, 0.05};

  auto scenario = [&pop, &req] {
    chan::DeviceChannelConfig device;
    device.manufacturing_seed = 77;
    auto& imp = device.impairments;
    imp.seed = 88;
    imp.reply_loss_prob = 0.1;
    imp.burst = sim::GilbertElliottParams{0.02, 0.2, 0.0, 1.0, false};
    imp.noise_transient = sim::NoiseTransientParams{0.02, 0.3, 0.6, false};
    imp.script.outages.push_back(sim::ReaderOutage{50, 20});
    imp.script.churn.push_back(sim::ChurnEvent{100, 30, 0});
    imp.script.churn.push_back(sim::ChurnEvent{200, 0, 15});

    chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet, device);
    core::RobustPetEstimator estimator(core::RobustPetConfig{}, req);
    auto result = estimator.estimate_with_rounds(channel, 96, 5);
    return std::make_pair(std::move(result), channel.ledger());
  };

  const auto first = scenario();
  const auto second = scenario();
  EXPECT_EQ(first.second, second.second) << "identical SlotLedger";
  EXPECT_EQ(first.first.n_hat(), second.first.n_hat()) << "identical n̂";
  EXPECT_EQ(first.first.base.depths, second.first.base.depths);
  EXPECT_EQ(first.first.reread_slots, second.first.reread_slots);
  EXPECT_EQ(first.first.diagnostic.ks_distance,
            second.first.diagnostic.ks_distance);
  // The cocktail actually fired.
  EXPECT_GT(first.second.erased_replies, 0u);
  EXPECT_GT(first.second.outage_slots, 0u);
  EXPECT_GT(first.second.retry_slots, 0u);
}

TEST(MultiReaderRobustness, RobustPathRunsOverTheFusedChannel) {
  const auto pop = tags::TagPopulation::generate(400, 29);
  const stats::AccuracyRequirement req{0.1, 0.05};
  const std::span<const TagId> ids = pop.ids();
  const std::size_t half = ids.size() / 2;

  auto build = [&ids, half] {
    std::vector<std::unique_ptr<chan::PrefixChannel>> zones;
    zones.push_back(std::make_unique<chan::DeviceChannel>(
        ids.subspan(0, half), chan::DeviceKind::kPet, lossy_device(0.2, 61)));
    zones.push_back(std::make_unique<chan::DeviceChannel>(
        ids.subspan(half), chan::DeviceKind::kPet, lossy_device(0.2, 67)));
    return multi::MultiReaderController(std::move(zones));
  };

  core::RobustPetConfig config;
  config.vote_reads = 3;
  config.vote_quorum = 1;  // reply loss only: OR-vote the re-reads
  core::RobustPetEstimator estimator(config, req);
  auto controller = build();
  const auto result = estimator.estimate_with_rounds(controller, 96, 5);

  EXPECT_GT(result.reread_slots, 0u);
  EXPECT_EQ(controller.ledger().retry_slots, result.reread_slots)
      << "fused ledger carries the retry accounting";
  EXPECT_EQ(controller.zone_ledger(0).retry_slots, result.reread_slots)
      << "every zone burned the re-read slots too";
  EXPECT_NEAR(result.n_hat(), static_cast<double>(ids.size()),
              0.25 * static_cast<double>(ids.size()));

  auto replay = build();
  const auto again = estimator.estimate_with_rounds(replay, 96, 5);
  EXPECT_EQ(again.n_hat(), result.n_hat()) << "multi-reader replay";
}

}  // namespace
}  // namespace pet

// End-to-end integration tests: full populations driven through the
// device-level simulation, anonymity auditing of live sessions, dynamic
// populations, impaired channels, and cross-protocol comparisons.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "channel/device_channel.hpp"
#include "channel/exact_channel.hpp"
#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "core/anonymity.hpp"
#include "core/estimator.hpp"
#include "core/planner.hpp"
#include "core/theory.hpp"
#include "protocols/fneb.hpp"
#include "protocols/identification.hpp"
#include "protocols/lof.hpp"
#include "sim/devices.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"
#include "stats/accuracy.hpp"
#include "tags/population.hpp"

namespace pet {
namespace {

std::vector<TagId> make_tags(std::size_t n, std::uint64_t seed) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

TEST(EndToEnd, DeviceLevelPetEstimateLandsNearTruth) {
  // Full fidelity: per-tag state machines, broadcast round begins, real
  // reply windows.  Small n keeps the O(n)/slot cost testable.
  const auto tags = make_tags(2000, 1);
  chan::DeviceChannel channel(tags, chan::DeviceKind::kPet);
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  const auto result = estimator.estimate_with_rounds(channel, 700, 2);
  EXPECT_NEAR(result.n_hat, 2000.0, 0.12 * 2000.0);
  EXPECT_EQ(result.ledger.total_slots(), 3500u);
  EXPECT_GT(channel.airtime_now(), 0u);
}

TEST(EndToEnd, PerRoundRehashModeWorksOnDevices) {
  const auto tags = make_tags(1500, 2);
  chan::DeviceChannelConfig config;
  config.pet_mode = sim::PetTagDevice::CodeMode::kPerRound;
  chan::DeviceChannel channel(tags, chan::DeviceKind::kPet, config);
  core::PetConfig pet;
  pet.tags_rehash = true;
  const auto result = core::PetEstimator(pet, {0.1, 0.05})
                          .estimate_with_rounds(channel, 700, 3);
  EXPECT_NEAR(result.n_hat, 1500.0, 0.12 * 1500.0);
  // Active tags hash once per round.
  EXPECT_EQ(channel.total_tag_cost().hash_evaluations, 700u * 1500u);
}

TEST(EndToEnd, PreloadedTagsNeverHash) {
  const auto tags = make_tags(500, 3);
  chan::DeviceChannel channel(tags, chan::DeviceKind::kPet);
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  (void)estimator.estimate_with_rounds(channel, 100, 4);
  EXPECT_EQ(channel.total_tag_cost().hash_evaluations, 0u)
      << "Section 4.5: passive-tag PET needs no on-chip hashing";
}

TEST(EndToEnd, PetSessionIsAnonymousAlohaIdIsNot) {
  // Overhear a PET session: no identifying uplink bits.
  const auto tags = make_tags(300, 5);
  sim::Simulator simulator;
  sim::Medium medium;
  core::AnonymityAuditor pet_auditor;
  medium.set_observer(pet_auditor.observer());
  std::vector<std::unique_ptr<sim::PetTagDevice>> devices;
  for (const TagId id : tags) {
    devices.push_back(std::make_unique<sim::PetTagDevice>(
        id, rng::HashKind::kMix64, 32,
        sim::PetTagDevice::CodeMode::kPreloaded, 0x9a9a5eedULL));
    medium.attach(devices.back().get());
  }
  for (std::uint64_t r = 0; r < 50; ++r) {
    const BitCode path =
        rng::uniform_code(rng::HashKind::kMix64, r, 0x700dULL, 32);
    for (unsigned len = 1; len <= 32; len += 7) {
      (void)medium.run_slot(sim::PrefixQueryCmd{path, len, 32}, simulator);
    }
  }
  EXPECT_GT(pet_auditor.report().slots_observed, 0u);
  EXPECT_GT(pet_auditor.report().busy_slots, 0u);
  EXPECT_TRUE(pet_auditor.report().anonymous())
      << "Section 4.6.4: PET must not leak identities";

  // The same eavesdropper on a DFSA identification session sees IDs.
  sim::Simulator simulator2;
  sim::Medium medium2;
  core::AnonymityAuditor id_auditor;
  medium2.set_observer(id_auditor.observer());
  std::vector<std::unique_ptr<sim::AlohaTagDevice>> aloha;
  for (const TagId id : make_tags(50, 6)) {
    aloha.push_back(std::make_unique<sim::AlohaTagDevice>(
        id, rng::HashKind::kMix64, true));
    medium2.attach(aloha.back().get());
  }
  medium2.broadcast(sim::FrameBeginCmd{1, 256, 1.0, 16}, simulator2);
  for (std::uint64_t s = 1; s <= 256; ++s) {
    (void)medium2.run_slot(sim::SlotPollCmd{s, 1}, simulator2);
  }
  EXPECT_FALSE(id_auditor.report().anonymous())
      << "identification leaks tag IDs on singleton slots";
}

TEST(EndToEnd, DynamicPopulationIsTracked) {
  // Tags join and leave between estimation sessions; each session sees the
  // current population.
  auto pop = tags::TagPopulation::generate(10000, 7);
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});

  auto estimate_now = [&](std::uint64_t seed) {
    chan::SortedPetChannel channel(pop.ids());
    return estimator.estimate_with_rounds(channel, 800, seed).n_hat;
  };

  EXPECT_NEAR(estimate_now(1), 10000.0, 1200.0);
  pop.join_fresh(20000, 8);
  EXPECT_NEAR(estimate_now(2), 30000.0, 3600.0);
  pop.leave_random(25000, 9);
  EXPECT_NEAR(estimate_now(3), 5000.0, 600.0);
}

TEST(EndToEnd, ModerateReplyLossBiasesEstimateDown) {
  // The paper assumes a lossless link (Section 5.1); quantify the failure
  // mode outside that assumption: losing replies can only erase busy slots,
  // so the depth estimate and n̂ shrink.
  const auto tags = make_tags(5000, 10);
  chan::DeviceChannelConfig lossy;
  lossy.impairments.reply_loss_prob = 0.5;
  chan::DeviceChannel channel(tags, chan::DeviceKind::kPet, lossy);
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  const auto result = estimator.estimate_with_rounds(channel, 300, 11);
  EXPECT_LT(result.n_hat, 5000.0);
  EXPECT_GT(result.n_hat, 500.0) << "graceful degradation, not collapse";
}

TEST(EndToEnd, PetBeatsBaselinesAtEqualAccuracy) {
  // The headline comparison (Tables 4-5): at (eps, delta) = (5%, 1%) PET
  // uses less than half the slots of FNEB and LoF.
  const stats::AccuracyRequirement req{0.05, 0.01};
  chan::SampledChannel pet_channel(50000, 12);
  chan::SampledChannel fneb_channel(50000, 12);
  chan::SampledChannel lof_channel(50000, 12);

  const auto pet = core::PetEstimator(core::PetConfig{}, req)
                       .estimate(pet_channel, 13);
  const auto fneb = proto::FnebEstimator(proto::FnebConfig{}, req)
                        .estimate(fneb_channel, 13);
  const auto lof = proto::LofEstimator(proto::LofConfig{}, req)
                       .estimate(lof_channel, 13);

  EXPECT_LT(pet.ledger.total_slots(), fneb.ledger.total_slots() / 2);
  EXPECT_LT(pet.ledger.total_slots(), lof.ledger.total_slots() / 2);
  EXPECT_NEAR(pet.n_hat, 50000.0, 0.05 * 50000.0);
}

TEST(EndToEnd, EstimationBeatsIdentificationByOrdersOfMagnitude) {
  // Section 1: identification needs Theta(n) slots; PET needs O(log log n)
  // per round.  At n = 10^6 the gap is ~40x even for a tight contract.
  const std::uint64_t n = 1000000;
  chan::SampledChannel channel(n, 14);
  const auto pet = core::PetEstimator(core::PetConfig{}, {0.05, 0.01})
                       .estimate(channel, 15);
  const auto id = proto::identify_treewalk_sampled(n, proto::TreeWalkConfig{},
                                                   16);
  EXPECT_GT(id.ledger.total_slots(), 40 * pet.ledger.total_slots());
}

TEST(EndToEnd, TheoryMatchesSimulationDistribution) {
  // Fig. 6a: the theoretical model and the simulated protocol produce
  // estimates with matching spread.
  const std::uint64_t n = 20000;
  const std::uint64_t rounds = 500;
  rng::Xoshiro256ss gen(17);
  const core::TheoreticalPet theory(n, 32, rounds);

  stats::TrialSummary theory_summary(static_cast<double>(n));
  stats::TrialSummary sim_summary(static_cast<double>(n));
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  chan::SampledChannel channel(n, 18);
  for (int t = 0; t < 40; ++t) {
    theory_summary.add(theory.sample_estimate(gen));
    sim_summary.add(
        estimator.estimate_with_rounds(channel, rounds, static_cast<std::uint64_t>(t)).n_hat);
  }
  EXPECT_NEAR(theory_summary.accuracy(), 1.0, 0.03);
  EXPECT_NEAR(sim_summary.accuracy(), 1.0, 0.03);
  EXPECT_NEAR(theory_summary.normalized_deviation(),
              sim_summary.normalized_deviation(), 0.05);
}

}  // namespace
}  // namespace pet

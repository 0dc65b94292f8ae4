// Tests for src/multireader: fused probing, duplicate-insensitivity under
// overlapping coverage, and mobile-tag robustness (Section 4.6.3).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "channel/exact_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "common/ensure.hpp"
#include "core/estimator.hpp"
#include "multireader/controller.hpp"
#include "tags/mobility.hpp"
#include "tags/population.hpp"

namespace pet::multi {
namespace {

// ExactChannel counts every tag each round; SortedPetChannel, the zone
// channel of Deployment and `petsim estimate --readers`, answers each probe
// from its round depth.
enum class ZoneKind { kExact, kSorted };

std::unique_ptr<chan::PrefixChannel> zone_channel(
    std::vector<TagId> tags, ZoneKind kind = ZoneKind::kExact) {
  if (kind == ZoneKind::kSorted) {
    return std::make_unique<chan::SortedPetChannel>(tags);
  }
  return std::make_unique<chan::ExactChannel>(std::move(tags));
}

/// Build a controller over the zones of a ZoneMap.
MultiReaderController controller_for(const tags::ZoneMap& zones,
                                     ZoneKind kind = ZoneKind::kExact) {
  std::vector<std::unique_ptr<chan::PrefixChannel>> readers;
  for (std::size_t z = 0; z < zones.zone_count(); ++z) {
    readers.push_back(zone_channel(zones.audible_in(z), kind));
  }
  return MultiReaderController(std::move(readers));
}

/// The two zone kinds must be indistinguishable through the controller:
/// the same estimate and the same fused and per-zone ledgers, bit for bit.
void expect_same_bits(const core::EstimateResult& got,
                      const MultiReaderController& got_controller,
                      const core::EstimateResult& want,
                      const MultiReaderController& want_controller) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.n_hat),
            std::bit_cast<std::uint64_t>(want.n_hat));
  EXPECT_EQ(got.depths, want.depths);
  EXPECT_EQ(got.ledger, want.ledger);
  EXPECT_EQ(got_controller.ledger(), want_controller.ledger());
  for (std::size_t z = 0; z < want_controller.reader_count(); ++z) {
    EXPECT_EQ(got_controller.zone_ledger(z), want_controller.zone_ledger(z))
        << "zone " << z;
  }
}

TEST(MultiReader, RejectsEmptyReaderSet) {
  EXPECT_THROW(
      MultiReaderController(
          std::vector<std::unique_ptr<chan::PrefixChannel>>{}),
      PreconditionError);
}

TEST(MultiReader, FusedBusyPatternEqualsSingleReaderUnion) {
  const auto pop = tags::TagPopulation::generate(3000, 1);
  tags::ZoneMap zones(4, 2);
  zones.scatter(pop);
  zones.add_overlap(0.3);  // duplicates across neighbouring zones

  auto fused = controller_for(zones);
  chan::ExactChannel single(
      {pop.ids().begin(), pop.ids().end()});  // one reader hears everyone

  for (std::uint64_t r = 0; r < 15; ++r) {
    const BitCode path =
        rng::uniform_code(rng::HashKind::kMix64, r, 0x700dULL, 32);
    const chan::RoundConfig round{path, 0, false, 32, 32};
    fused.begin_round(round);
    single.begin_round(round);
    for (unsigned len = 0; len <= 32; ++len) {
      EXPECT_EQ(fused.query_prefix(len), single.query_prefix(len))
          << "round " << r << " len " << len;
    }
  }
}

TEST(MultiReader, OverlapDoesNotInflateTheEstimate) {
  // The Section 4.6.3 claim: a tag heard by several readers contributes the
  // same as one response.  Compare estimates with and without overlap over
  // the same population.
  const auto pop = tags::TagPopulation::generate(8000, 3);

  tags::ZoneMap no_overlap(4, 4);
  no_overlap.scatter(pop);
  tags::ZoneMap heavy_overlap(4, 4);
  heavy_overlap.scatter(pop);
  heavy_overlap.add_overlap(1.0);  // every tag audible in two zones

  auto fused_a = controller_for(no_overlap);
  auto fused_b = controller_for(heavy_overlap);
  auto sorted_b = controller_for(heavy_overlap, ZoneKind::kSorted);

  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  const auto ra = estimator.estimate_with_rounds(fused_a, 600, 7);
  const auto rb = estimator.estimate_with_rounds(fused_b, 600, 7);
  EXPECT_EQ(ra.depths, rb.depths)
      << "identical paths + duplicate-insensitive fusion = identical rounds";
  EXPECT_DOUBLE_EQ(ra.n_hat, rb.n_hat);
  EXPECT_NEAR(ra.n_hat, 8000.0, 0.1 * 8000.0);
  expect_same_bits(estimator.estimate_with_rounds(sorted_b, 600, 7), sorted_b,
                   rb, fused_b);
}

TEST(MultiReader, ControllerLedgerCountsFusedSlots) {
  const auto pop = tags::TagPopulation::generate(100, 5);
  tags::ZoneMap zones(3, 6);
  zones.scatter(pop);
  auto fused = controller_for(zones);

  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  const auto result = estimator.estimate_with_rounds(fused, 40, 8);
  EXPECT_EQ(result.ledger.total_slots(), 200u)
      << "5 slots/round regardless of reader count";
}

TEST(MultiReader, ZoneLedgersTrackPerReaderAirtime) {
  const auto pop = tags::TagPopulation::generate(100, 5);
  tags::ZoneMap zones(3, 6);
  zones.scatter(pop);
  auto fused = controller_for(zones);
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  const auto result = estimator.estimate_with_rounds(fused, 10, 9);
  for (std::size_t z = 0; z < 3; ++z) {
    EXPECT_EQ(fused.zone_ledger(z).total_slots(), 50u)
        << "every reader probes every slot";
  }
  EXPECT_THROW(fused.zone_ledger(3), PreconditionError);

  auto sorted = controller_for(zones, ZoneKind::kSorted);
  expect_same_bits(estimator.estimate_with_rounds(sorted, 10, 9), sorted,
                   result, fused);
}

TEST(MultiReader, MobileTagsAreStillCountedOnce) {
  // Tags move between zones across estimation rounds; the controller keeps
  // estimating the same distinct count.
  const auto pop = tags::TagPopulation::generate(5000, 10);
  tags::ZoneMap zones(5, 11);
  zones.scatter(pop);

  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto fused = controller_for(zones);
    const auto result = estimator.estimate_with_rounds(
        fused, 600, 20 + static_cast<std::uint64_t>(epoch));
    EXPECT_NEAR(result.n_hat, 5000.0, 0.12 * 5000.0) << "epoch " << epoch;
    zones.step(0.4);  // 40% of tags wander before the next estimate
  }
}

TEST(MultiReader, SingleReaderDegeneratesToPlainChannel) {
  const auto pop = tags::TagPopulation::generate(2000, 12);
  std::vector<std::unique_ptr<chan::PrefixChannel>> readers;
  readers.push_back(zone_channel({pop.ids().begin(), pop.ids().end()}));
  MultiReaderController fused(std::move(readers));
  EXPECT_EQ(fused.reader_count(), 1u);

  chan::ExactChannel direct({pop.ids().begin(), pop.ids().end()});
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  const auto rf = estimator.estimate_with_rounds(fused, 100, 13);
  const auto rd = estimator.estimate_with_rounds(direct, 100, 13);
  EXPECT_EQ(rf.depths, rd.depths);
  EXPECT_DOUBLE_EQ(rf.n_hat, rd.n_hat);
}

}  // namespace
}  // namespace pet::multi

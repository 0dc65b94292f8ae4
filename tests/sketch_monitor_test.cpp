// Tests for the PET extensions: post-hoc confidence intervals, mergeable
// sketches (union/intersection estimation), and the streaming monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "channel/exact_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "common/ensure.hpp"
#include "core/confidence.hpp"
#include "core/estimator.hpp"
#include "core/monitor.hpp"
#include "core/sketch.hpp"
#include "tags/population.hpp"

namespace pet::core {
namespace {

std::vector<TagId> make_tags(std::size_t n, std::uint64_t seed) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

// --------------------------------------------------------------- confidence

TEST(Confidence, IntervalContainsPointEstimate) {
  chan::SortedPetChannel channel(make_tags(10000, 1));
  const PetEstimator estimator(PetConfig{}, {0.1, 0.05});
  const auto result = estimator.estimate_with_rounds(channel, 500, 2);
  const auto ci = confidence_interval(result, 0.05);
  EXPECT_LT(ci.lo, ci.point);
  EXPECT_GT(ci.hi, ci.point);
  EXPECT_NEAR(ci.point, result.n_hat, 1e-9);
}

TEST(Confidence, TighterDeltaWidensInterval) {
  chan::SortedPetChannel channel(make_tags(10000, 1));
  const PetEstimator estimator(PetConfig{}, {0.1, 0.05});
  const auto result = estimator.estimate_with_rounds(channel, 500, 2);
  const auto loose = confidence_interval(result, 0.10);
  const auto tight = confidence_interval(result, 0.01);
  EXPECT_LT(loose.hi - loose.lo, tight.hi - tight.lo);
}

TEST(Confidence, MoreRoundsNarrowInterval) {
  chan::SortedPetChannel channel(make_tags(10000, 1));
  const PetEstimator estimator(PetConfig{}, {0.1, 0.05});
  const auto few = estimator.estimate_with_rounds(channel, 100, 2);
  const auto many = estimator.estimate_with_rounds(channel, 1600, 2);
  EXPECT_GT(confidence_interval(few, 0.05).relative_half_width(),
            confidence_interval(many, 0.05).relative_half_width());
  // 16x the rounds -> ~4x narrower.
  EXPECT_NEAR(confidence_interval(few, 0.05).relative_half_width() /
                  confidence_interval(many, 0.05).relative_half_width(),
              4.0, 1.0);
}

TEST(Confidence, CoversTruthAtTheNominalRate) {
  // 40 estimates at delta = 10%: expect >= ~90% coverage (allow slack for
  // the small trial count).
  const auto tags = make_tags(20000, 3);
  const PetEstimator estimator(PetConfig{}, {0.1, 0.05});
  int covered = 0;
  for (std::uint64_t t = 0; t < 40; ++t) {
    chan::SortedPetChannelConfig config;
    config.manufacturing_seed = 1000 + t;
    chan::SortedPetChannel channel(tags, config);
    const auto result = estimator.estimate_with_rounds(channel, 400, t);
    if (confidence_interval(result, 0.10).contains(20000.0)) ++covered;
  }
  EXPECT_GE(covered, 32);
}

TEST(Confidence, EmpiricalIntervalTracksAsymptoticOne) {
  chan::SortedPetChannel channel(make_tags(30000, 4));
  const PetEstimator estimator(PetConfig{}, {0.1, 0.05});
  const auto result = estimator.estimate_with_rounds(channel, 2000, 5);
  const auto asymptotic = confidence_interval(result, 0.05);
  const auto empirical = empirical_confidence_interval(result, 0.05);
  // The sample sigma over 2000 rounds is within ~10% of sigma(h) = 1.8727.
  EXPECT_NEAR(empirical.relative_half_width(),
              asymptotic.relative_half_width(),
              0.15 * asymptotic.relative_half_width());
}

TEST(Confidence, EmptyObservationsCollapseToAPointAtZero) {
  // A certified-empty read (no depth observations) is an exact n-hat = 0,
  // so the interval degenerates instead of throwing.  The delta
  // precondition is still enforced first.
  EstimateResult empty;
  const auto interval = confidence_interval(empty, 0.05);
  EXPECT_EQ(interval.lo, 0.0);
  EXPECT_EQ(interval.point, 0.0);
  EXPECT_EQ(interval.hi, 0.0);
  EXPECT_THROW((void)confidence_interval(empty, 0.0), PreconditionError);
}

// ------------------------------------------------------------------- sketch

TEST(Sketch, EstimateMatchesEstimator) {
  const auto tags = make_tags(8000, 5);
  chan::SortedPetChannel a(tags);
  chan::SortedPetChannel b(tags);
  const PetConfig config;
  const auto sketch = PetSketch::take(a, config, 600, 7);
  const auto result =
      PetEstimator(config, {0.1, 0.05}).estimate_with_rounds(b, 600, 7);
  // Same seed, same round driver: the same depths and the same n̂ bits.
  EXPECT_EQ(sketch.depths(), result.depths);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sketch.estimate()),
            std::bit_cast<std::uint64_t>(result.n_hat));

  // The sorted channel answers each probe from its round depth; the
  // reference back end counts every tag each round.  Same depths, same
  // ledger.
  chan::ExactChannel exact(tags);
  EXPECT_EQ(PetSketch::take(exact, config, 600, 7).depths(), sketch.depths());
  EXPECT_EQ(exact.ledger(), a.ledger());
}

TEST(Sketch, RejectsRehashMode) {
  const auto tags = make_tags(10, 5);
  chan::SortedPetChannel channel(tags);
  PetConfig config;
  config.tags_rehash = true;
  EXPECT_THROW((void)PetSketch::take(channel, config, 10, 1),
               PreconditionError);
}

TEST(Sketch, UnionOfDisjointSetsAddsUp) {
  const auto all = make_tags(20000, 6);
  const std::vector<TagId> left(all.begin(), all.begin() + 12000);
  const std::vector<TagId> right(all.begin() + 12000, all.end());

  chan::SortedPetChannel ca(left);
  chan::SortedPetChannel cb(right);
  const PetConfig config;
  const auto sa = PetSketch::take(ca, config, 1200, 9);
  const auto sb = PetSketch::take(cb, config, 1200, 9);
  ASSERT_TRUE(sa.mergeable_with(sb));
  const auto su = PetSketch::merge_union(sa, sb);
  EXPECT_NEAR(su.estimate(), 20000.0, 0.12 * 20000.0);
  EXPECT_NEAR(sa.estimate(), 12000.0, 0.12 * 12000.0);
  EXPECT_NEAR(sb.estimate(), 8000.0, 0.12 * 8000.0);
}

TEST(Sketch, UnionIsDuplicateInsensitive) {
  // Overlapping readers: the union estimate equals a single reader's
  // estimate of the same distinct set, exactly.
  const auto all = make_tags(10000, 7);
  const std::vector<TagId> left(all.begin(), all.begin() + 7000);
  const std::vector<TagId> right(all.begin() + 4000, all.end());  // overlap

  chan::SortedPetChannel ca(left);
  chan::SortedPetChannel cb(right);
  chan::SortedPetChannel cu(all);
  const PetConfig config;
  const auto sa = PetSketch::take(ca, config, 800, 11);
  const auto sb = PetSketch::take(cb, config, 800, 11);
  const auto direct = PetSketch::take(cu, config, 800, 11);
  const auto merged = PetSketch::merge_union(sa, sb);
  EXPECT_EQ(merged.depths(), direct.depths())
      << "max composition is exact, not just statistical";
}

TEST(Sketch, IntersectionViaInclusionExclusion) {
  const auto all = make_tags(30000, 8);
  const std::vector<TagId> left(all.begin(), all.begin() + 20000);
  const std::vector<TagId> right(all.begin() + 10000, all.end());
  // |A| = 20000, |B| = 20000, |A n B| = 10000.

  chan::SortedPetChannel ca(left);
  chan::SortedPetChannel cb(right);
  const PetConfig config;
  const auto sa = PetSketch::take(ca, config, 3000, 13);
  const auto sb = PetSketch::take(cb, config, 3000, 13);
  const double inter = PetSketch::estimate_intersection(sa, sb);
  // IE differences are noisy; accept a wide band around 10000.
  EXPECT_NEAR(inter, 10000.0, 4000.0);
}

TEST(Sketch, MergeRequiresMatchingParameters) {
  const auto tags = make_tags(100, 9);
  chan::SortedPetChannel ca(tags);
  chan::SortedPetChannel cb(tags);
  const PetConfig config;
  const auto sa = PetSketch::take(ca, config, 10, 1);
  const auto sb = PetSketch::take(cb, config, 10, 2);  // different seed
  EXPECT_FALSE(sa.mergeable_with(sb));
  EXPECT_THROW((void)PetSketch::merge_union(sa, sb), PreconditionError);
  const auto sc = PetSketch::take(cb, config, 20, 1);  // different rounds
  EXPECT_FALSE(sa.mergeable_with(sc));
}

TEST(Sketch, WireSizeIsCompact) {
  const auto tags = make_tags(100, 10);
  chan::SortedPetChannel channel(tags);
  const auto sketch = PetSketch::take(channel, PetConfig{}, 1000, 1);
  // 1000 depths at 6 bits each + header: well under 1 KiB.
  EXPECT_EQ(sketch.wire_bits(), 64u + 8u + 6000u);
}

TEST(Sketch, RoundTripsThroughStoredState) {
  const auto tags = make_tags(500, 11);
  chan::SortedPetChannel channel(tags);
  const auto original = PetSketch::take(channel, PetConfig{}, 100, 3);
  const PetSketch restored(original.seed(), original.tree_height(),
                           original.depths());
  EXPECT_DOUBLE_EQ(restored.estimate(), original.estimate());
  EXPECT_TRUE(restored.mergeable_with(original));
}

TEST(Sketch, ValidatesStoredState) {
  EXPECT_THROW(PetSketch(1, 32, {}), PreconditionError);
  EXPECT_THROW(PetSketch(1, 32, {33}), PreconditionError);
  EXPECT_THROW(PetSketch(1, 1, {0}), PreconditionError);
}

// ------------------------------------------------------------------ monitor

TEST(Monitor, ValidatesConfig) {
  MonitorConfig config;
  config.recent_rounds = 2;
  EXPECT_THROW(StreamingMonitor(config, 1), PreconditionError);
  config = MonitorConfig{};
  config.recent_rounds = config.window_rounds;
  EXPECT_THROW(StreamingMonitor(config, 1), PreconditionError);
}

TEST(Monitor, WarmsUpBeforeEstimating) {
  chan::SortedPetChannel channel(make_tags(5000, 12));
  MonitorConfig config;
  StreamingMonitor monitor(config, 1);
  EXPECT_FALSE(monitor.estimate().has_value());
  for (std::size_t i = 0; i < config.recent_rounds; ++i) {
    (void)monitor.tick(channel);
  }
  EXPECT_TRUE(monitor.estimate().has_value());
}

TEST(Monitor, ConvergesOnStablePopulation) {
  chan::SortedPetChannel channel(make_tags(20000, 13));
  MonitorConfig config;
  StreamingMonitor monitor(config, 2);
  for (int i = 0; i < 256; ++i) (void)monitor.tick(channel);
  ASSERT_TRUE(monitor.estimate().has_value());
  EXPECT_NEAR(*monitor.estimate(), 20000.0, 0.2 * 20000.0);
  EXPECT_EQ(monitor.changes_detected(), 0u)
      << "no false alarms on a stable population in this run";
  const auto ci = monitor.interval(0.05);
  ASSERT_TRUE(ci.has_value());
  EXPECT_TRUE(ci->contains(20000.0));
}

TEST(Monitor, DetectsAnOrderOfMagnitudeJump) {
  auto pop = tags::TagPopulation::generate(2000, 14);
  MonitorConfig config;
  StreamingMonitor monitor(config, 3);
  // The same ticks over the reference back end: every verdict, window and
  // ledger must match the sorted channel's.
  StreamingMonitor exact_monitor(config, 3);

  auto run_ticks = [&](int count) {
    bool changed = false;
    chan::SortedPetChannel channel(pop.ids());
    chan::ExactChannel exact({pop.ids().begin(), pop.ids().end()});
    for (int i = 0; i < count; ++i) {
      const bool fired = monitor.tick(channel);
      EXPECT_EQ(exact_monitor.tick(exact), fired) << "tick " << i;
      changed = fired || changed;
    }
    EXPECT_EQ(exact_monitor.window_as_result().depths,
              monitor.window_as_result().depths);
    EXPECT_EQ(exact.ledger(), channel.ledger());
    return changed;
  };

  EXPECT_FALSE(run_ticks(128));
  pop.join_fresh(18000, 15);  // 2k -> 20k
  EXPECT_TRUE(run_ticks(128)) << "10x growth must trip the detector";
  ASSERT_TRUE(monitor.estimate().has_value());
  EXPECT_NEAR(*monitor.estimate(), 20000.0, 0.35 * 20000.0)
      << "after reseeding, the estimate tracks the new population";
}

TEST(Monitor, CountsTicks) {
  chan::SortedPetChannel channel(make_tags(100, 16));
  StreamingMonitor monitor(MonitorConfig{}, 4);
  for (int i = 0; i < 10; ++i) (void)monitor.tick(channel);
  EXPECT_EQ(monitor.ticks(), 10u);
  EXPECT_EQ(monitor.window_fill(), 10u);
}

}  // namespace
}  // namespace pet::core

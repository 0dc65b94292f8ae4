// Fast-round pipeline conformance: SortedPetChannel's depth-answered
// probes, the bucket-indexed code build, rebuild(), and the per-thread
// channel arenas must be *byte-identical* to the references -- same
// EstimateResult, same SlotLedger down to the floating-point airtime sum --
// for every (n, H, seed) including the degenerate populations n = 0 and
// n = 1, the H = 64 all-ones path and empty buckets (docs/performance.md).
// Two references share none of SortedPetChannel's code: ExactChannel, and
// codes hashed one id at a time, which pin every round depth and every
// probe's responder count.  Rebuilt and arena channels must also match a
// channel constructed fresh.  The standalone radix sort and the batched
// hash are fuzzed here as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "channel/arena.hpp"
#include "channel/exact_channel.hpp"
#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "common/bitcode.hpp"
#include "common/ensure.hpp"
#include "common/radix.hpp"
#include "core/estimator.hpp"
#include "core/robust_estimator.hpp"
#include "rng/hash_family.hpp"
#include "rng/prng.hpp"
#include "tags/population.hpp"

namespace {

using namespace pet;

// Bitwise double comparison: "byte-identical" includes NaN payloads and
// signed zeros, which EXPECT_DOUBLE_EQ would blur.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_ledger_identical(const sim::SlotLedger& got,
                             const sim::SlotLedger& want) {
  EXPECT_EQ(got.idle_slots, want.idle_slots);
  EXPECT_EQ(got.singleton_slots, want.singleton_slots);
  EXPECT_EQ(got.collision_slots, want.collision_slots);
  EXPECT_EQ(got.reader_bits, want.reader_bits);
  EXPECT_EQ(got.tag_bits, want.tag_bits);
  EXPECT_EQ(bits(got.airtime_us), bits(want.airtime_us));
  EXPECT_EQ(got.retry_slots, want.retry_slots);
  EXPECT_EQ(got.erased_replies, want.erased_replies);
  EXPECT_EQ(got.noise_busy_slots, want.noise_busy_slots);
  EXPECT_EQ(got.outage_slots, want.outage_slots);
}

void expect_result_identical(const core::EstimateResult& got,
                             const core::EstimateResult& want) {
  EXPECT_EQ(bits(got.n_hat), bits(want.n_hat));
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(bits(got.mean_depth), bits(want.mean_depth));
  EXPECT_EQ(got.depths, want.depths);
  expect_ledger_identical(got.ledger, want.ledger);
  EXPECT_EQ(got.truncated, want.truncated);
}

std::vector<TagId> make_ids(std::size_t n, std::uint64_t seed) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

// An ExactChannel over the ids and the code universe of a sorted channel.
chan::ExactChannel exact_twin(const std::vector<TagId>& ids,
                              const chan::SortedPetChannelConfig& config) {
  chan::ExactChannelConfig exact_config;
  exact_config.tree_height = config.tree_height;
  exact_config.hash = config.hash;
  exact_config.manufacturing_seed = config.manufacturing_seed;
  exact_config.timing = config.timing;
  return chan::ExactChannel(ids, exact_config);
}

constexpr core::SearchMode kModes[] = {core::SearchMode::kLinear,
                                       core::SearchMode::kBinaryPaper,
                                       core::SearchMode::kBinaryStrict};

// ---------------------------------------------------------------------------
// End-to-end: SortedPetChannel vs the ExactChannel reference back end.

// `cases` random (n, H, seeds, m) draws from `grid_seed` over `sizes` and
// `heights`, the search mode cycling through kModes: the fast channel, which
// answers every probe from one bucket scan per round, and the slow one,
// which rescans every code per probe, must give the same estimate bit for bit.
void expect_sorted_matches_exact(std::uint64_t grid_seed,
                                 std::span<const std::size_t> sizes,
                                 std::span<const unsigned> heights, int cases,
                                 std::uint64_t max_rounds,
                                 std::uint64_t id_seed) {
  rng::SplitMix64 gen(grid_seed);
  for (int c = 0; c < cases; ++c) {
    const std::size_t n = sizes[gen() % sizes.size()];
    const unsigned height = heights[gen() % heights.size()];
    const core::SearchMode mode = kModes[c % 3];
    const std::uint64_t manufacturing_seed = gen();
    const std::uint64_t estimate_seed = gen();
    const std::uint64_t rounds = 1 + gen() % max_rounds;
    SCOPED_TRACE(testing::Message()
                 << "case " << c << ": n=" << n << " H=" << height
                 << " mode=" << to_string(mode) << " mseed="
                 << manufacturing_seed << " eseed=" << estimate_seed
                 << " m=" << rounds);

    core::PetConfig config;
    config.tree_height = height;
    config.search = mode;
    const core::PetEstimator estimator(config, {0.05, 0.01});
    const auto ids = make_ids(n, id_seed + static_cast<std::uint64_t>(c));

    chan::SortedPetChannelConfig sorted_config;
    sorted_config.tree_height = height;
    sorted_config.manufacturing_seed = manufacturing_seed;
    chan::ExactChannel exact = exact_twin(ids, sorted_config);
    const auto slow =
        estimator.estimate_with_rounds(exact, rounds, estimate_seed);
    chan::SortedPetChannel sorted(ids, sorted_config);
    const auto fast =
        estimator.estimate_with_rounds(sorted, rounds, estimate_seed);
    expect_result_identical(fast, slow);
  }
}

TEST(FastPath, MatchesExactChannelAcrossRandomCases) {
  const std::size_t sizes[] = {0, 1, 2, 3, 17, 100, 777, 5000};
  const unsigned heights[] = {3, 8, 32, 63, 64};
  expect_sorted_matches_exact(0xfa57ull, sizes, heights, 40, 12, 0xdecafULL);
}

// Sizes at four bucket widths (b = 1, 2, 5 and 8 at n = 5, 64, 1023 and
// 4096), heights from H = 4, which caps b, to H = 64, and up to 20 rounds.
TEST(FastPath, FastAndSlowSortedChannelBitIdentical) {
  const std::size_t sizes[] = {0, 1, 5, 64, 1023, 4096};
  const unsigned heights[] = {4, 16, 32, 64};
  expect_sorted_matches_exact(0x50f7ull, sizes, heights, 30, 20, 0xface5ULL);
}

// The table3 --quick grid as bench::run_pet drives it -- population seed
// 0xdecaf, grid seed 1 + m, manufacturing seed derive(seed, 2 run),
// estimate seed derive(seed, 2 run + 1) -- through the arena channel, against
// a fresh channel on every run and against ExactChannel on each m's first
// run (scripts/check_repro.sh claim 6).  ExactChannel hashes all n codes
// and rescans them every round, so all 240 runs of it would be slow.
TEST(FastPath, Table3QuickGridMatchesFreshAndExactChannels) {
  const auto ids = make_ids(50000, 0xdecafULL);
  const core::PetConfig config;
  const core::PetEstimator estimator(config, {0.05, 0.01});

  for (const std::uint64_t m : {8ull, 16ull, 32ull, 64ull, 128ull, 256ull,
                                512ull, 1024ull}) {
    const std::uint64_t seed = 1 + m;
    for (std::uint64_t run = 0; run < 30; ++run) {
      chan::SortedPetChannelConfig channel_config;
      channel_config.tree_height = config.tree_height;
      channel_config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
      const std::uint64_t estimate_seed = rng::derive_seed(seed, 2 * run + 1);
      SCOPED_TRACE(testing::Message() << "m=" << m << " run=" << run);

      chan::SortedPetChannel& arena =
          chan::arena_sorted_pet_channel(ids, channel_config);
      const auto got = estimator.estimate_with_rounds(arena, m, estimate_seed);
      arena.flush_obs();

      chan::SortedPetChannel fresh(ids, channel_config);
      expect_result_identical(
          got, estimator.estimate_with_rounds(fresh, m, estimate_seed));
      if (run == 0) {
        chan::ExactChannel exact = exact_twin(ids, channel_config);
        expect_result_identical(
            got, estimator.estimate_with_rounds(exact, m, estimate_seed));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Robust estimator: votes over SortedPetChannel, whose re-reads reuse the
// last busy count, must charge retry_slots exactly as over ExactChannel.

TEST(FastPath, RobustVotingParityIncludingRetryAccounting) {
  rng::SplitMix64 gen(0x0b57ull);
  struct Case {
    std::size_t n;
    unsigned height;
    std::uint64_t retry_budget;
  };
  const Case cases[] = {
      {0, 32, UINT64_MAX},  {1, 32, UINT64_MAX}, {500, 32, UINT64_MAX},
      {500, 32, 5},         {2000, 64, UINT64_MAX}, {2000, 64, 3},
      {100, 8, UINT64_MAX},
  };

  for (const Case& test_case : cases) {
    const std::uint64_t manufacturing_seed = gen();
    const std::uint64_t estimate_seed = gen();
    const std::uint64_t rounds = 1 + gen() % 10;
    SCOPED_TRACE(testing::Message()
                 << "n=" << test_case.n << " H=" << test_case.height
                 << " budget=" << test_case.retry_budget);

    core::RobustPetConfig config;
    config.base.tree_height = test_case.height;
    config.vote_reads = 3;
    config.vote_quorum = 2;
    config.retry_budget_slots = test_case.retry_budget;
    const core::RobustPetEstimator estimator(config, {0.05, 0.01});
    const auto ids = make_ids(test_case.n, 0x0b57e11ULL);
    chan::SortedPetChannelConfig sorted_config;
    sorted_config.tree_height = test_case.height;
    sorted_config.manufacturing_seed = manufacturing_seed;

    chan::ExactChannel exact = exact_twin(ids, sorted_config);
    const auto slow =
        estimator.estimate_with_rounds(exact, rounds, estimate_seed);
    chan::SortedPetChannel channel(ids, sorted_config);
    const auto fast =
        estimator.estimate_with_rounds(channel, rounds, estimate_seed);

    expect_result_identical(fast.base, slow.base);
    EXPECT_EQ(fast.reread_slots, slow.reread_slots);
    EXPECT_EQ(fast.overturned_probes, slow.overturned_probes);
    EXPECT_EQ(fast.retry_budget_exhausted, slow.retry_budget_exhausted);
    EXPECT_EQ(bits(fast.interval.lo), bits(slow.interval.lo));
    EXPECT_EQ(bits(fast.interval.hi), bits(slow.interval.hi));
    EXPECT_EQ(bits(fast.diagnostic.ks_distance),
              bits(slow.diagnostic.ks_distance));
    EXPECT_EQ(fast.diagnostic.health, slow.diagnostic.health);
  }
}

// ---------------------------------------------------------------------------
// Round depths and probe counts against codes hashed one id at a time: the
// reference that shares none of SortedPetChannel's counting code.

// One population of the brute-force grid.
struct BruteForceCase {
  chan::SortedPetChannelConfig config;
  std::vector<TagId> ids;
  std::vector<BitCode> codes;        ///< element-wise uniform_code per id
  std::vector<std::uint64_t> paths;  ///< path values to probe
};

// Every (n, H) of the grid as a plain population and, from H = 5 up, as two
// populations with a hole: ids are kept by rejection so that no code falls
// in the lowest quarter, or a middle quarter, of the code space.  Random
// codes leave a bucket empty with probability about e^-16 at most, so a
// hole is how these tests reach an empty bucket.  Paths: every value when
// H <= 8, which covers every bucket edge whatever the bucket width; else 0,
// all-ones, a random path, two codes and their +-1 neighbours, and the
// hole's first, middle and last values.
void for_each_brute_force_case(
    const std::function<void(const BruteForceCase&)>& visit) {
  const std::size_t sizes[] = {0, 1, 2, 3, 63, 64, 65, 2000, 50000};
  const unsigned heights[] = {1, 2, 5, 17, 32, 64};
  rng::SplitMix64 gen(0xb0c4e7ULL);

  for (const unsigned height : heights) {
    const std::uint64_t mask = ~std::uint64_t{0} >> (64 - height);
    const std::uint64_t quarter = (mask >> 2) + 1;
    for (const std::size_t n : sizes) {
      const int populations = (height >= 5 && n > 0) ? 3 : 1;
      for (int hole = 0; hole < populations; ++hole) {
        const std::uint64_t hole_size = hole == 0 ? 0 : quarter;
        const std::uint64_t hole_lo = hole == 2 ? quarter + quarter / 2 : 0;

        BruteForceCase test_case;
        test_case.config.tree_height = height;
        test_case.config.manufacturing_seed = gen();
        while (test_case.ids.size() < n) {
          const TagId id{gen()};
          const BitCode code =
              rng::uniform_code(rng::HashKind::kMix64,
                                test_case.config.manufacturing_seed, id, height);
          if (code.value() - hole_lo < hole_size) continue;
          test_case.ids.push_back(id);
          test_case.codes.push_back(code);
        }

        if (height <= 8) {
          for (std::uint64_t v = 0; v <= mask; ++v) test_case.paths.push_back(v);
        } else {
          test_case.paths = {0, mask, gen() & mask};
          for (const std::size_t i : {std::size_t{0}, n / 2}) {
            if (i >= n) continue;
            const std::uint64_t code = test_case.codes[i].value();
            test_case.paths.push_back(code);
            test_case.paths.push_back((code - 1) & mask);
            test_case.paths.push_back((code + 1) & mask);
          }
          if (hole_size != 0) {
            test_case.paths.push_back(hole_lo);
            test_case.paths.push_back(hole_lo + hole_size / 2);
            test_case.paths.push_back(hole_lo + hole_size - 1);
          }
        }
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " H=" << height << " hole=[" << hole_lo
                     << ", +" << hole_size << ")");
        visit(test_case);
      }
    }
  }
}

TEST(FastPath, RoundDepthMatchesBruteForceMaxLcp) {
  for_each_brute_force_case([](const BruteForceCase& test_case) {
    const unsigned height = test_case.config.tree_height;
    chan::SortedPetChannel channel(test_case.ids, test_case.config);
    for (const std::uint64_t path_value : test_case.paths) {
      const BitCode path(path_value, height);
      channel.begin_round(chan::RoundConfig{path, 0, false, height, height});
      unsigned want = 0;
      for (const BitCode& code : test_case.codes) {
        want = std::max(want, code.common_prefix_len(path));
      }
      ASSERT_EQ(channel.round_depth(), want) << "path=" << path_value;
    }
  });
}

// Probe for probe, the busy verdict and the responder count (the ledger's
// tag_bits delta) equal the number of codes matching the probed prefix.
// Each round reads every len twice back to back, as a vote re-reads a
// probe, and then once more in a seeded shuffled order, so a count the
// channel kept from an earlier read is checked against the brute force too.
// A round first re-reads the last busy len of the round before, whose kept
// count is now stale.
TEST(FastPath, QueryPrefixMatchesBruteForceAcrossReReads) {
  rng::SplitMix64 shuffle_gen(0x5ca11edULL);
  for_each_brute_force_case([&shuffle_gen](const BruteForceCase& test_case) {
    const unsigned height = test_case.config.tree_height;
    chan::SortedPetChannel channel(test_case.ids, test_case.config);
    std::vector<std::size_t> want(height + 1);
    std::vector<unsigned> lens;
    unsigned last_busy = 0;
    for (const std::uint64_t path_value : test_case.paths) {
      const BitCode path(path_value, height);
      // want[len]: codes whose common prefix with the path is >= len.
      std::fill(want.begin(), want.end(), 0);
      for (const BitCode& code : test_case.codes) {
        ++want[code.common_prefix_len(path)];
      }
      for (unsigned len = height; len-- > 0;) want[len] += want[len + 1];

      lens.assign(1, last_busy);
      for (unsigned len = 0; len <= height; ++len) {
        lens.push_back(len);
        lens.push_back(len);
      }
      const std::size_t shuffled = lens.size();
      for (unsigned len = 0; len <= height; ++len) lens.push_back(len);
      for (std::size_t i = lens.size() - 1; i > shuffled; --i) {
        const std::size_t j = shuffled + shuffle_gen() % (i - shuffled + 1);
        std::swap(lens[i], lens[j]);
      }

      channel.begin_round(chan::RoundConfig{path, 0, false, height, height});
      for (const unsigned len : lens) {
        const std::uint64_t before = channel.ledger().tag_bits;
        ASSERT_EQ(channel.query_prefix(len), want[len] > 0)
            << "path=" << path_value << " len=" << len;
        ASSERT_EQ(channel.ledger().tag_bits - before, want[len])
            << "path=" << path_value << " len=" << len;
        if (want[len] > 0) last_busy = len;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Sorting and hashing engines.

TEST(FastPath, RadixSortMatchesStdSortFuzz) {
  rng::SplitMix64 gen(0x4ad1eULL);
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> scratch;
  constexpr int kShapes = 6;
  constexpr int kRandomSizes = 200;
  // After the random sizes, every shape at the build sizes sweeps and petd
  // populations reach: table3's n = 50 000 and two past 2^16 keys.
  const std::size_t large[] = {50000, 70000, (std::size_t{1} << 17) + 1};
  const int cases = kRandomSizes + kShapes * static_cast<int>(std::size(large));

  for (int c = 0; c < cases; ++c) {
    const std::size_t n = c < kRandomSizes
                              ? static_cast<std::size_t>(gen() % 4097)
                              : large[(c - kRandomSizes) / kShapes];
    const unsigned key_bits = 1 + static_cast<unsigned>(gen() % 64);
    const std::uint64_t mask = key_bits == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << key_bits) - 1;
    values.resize(n);
    switch (c % kShapes) {
      case 0:  // uniform over the key range
        for (auto& v : values) v = gen() & mask;
        break;
      case 1:  // heavy duplicates
        for (auto& v : values) v = gen() % 7;
        break;
      case 2:  // already sorted
        for (std::size_t i = 0; i < n; ++i) values[i] = i & mask;
        break;
      case 3:  // reverse sorted
        for (std::size_t i = 0; i < n; ++i) values[i] = (n - i) & mask;
        break;
      case 4: {  // one hot top digit: 99% share it, 1% anywhere
        const std::uint64_t hot_top = (mask >> 1) & ~(mask >> 8);
        for (std::size_t i = 0; i < n; ++i) {
          values[i] = i % 100 == 0 ? (gen() & mask)
                                   : (hot_top | (gen() & (mask >> 8)));
        }
        break;
      }
      default:  // constant
        for (auto& v : values) v = 0x5eedULL & mask;
        break;
    }
    std::vector<std::uint64_t> want = values;
    std::sort(want.begin(), want.end());
    radix_sort_u64(values, scratch, key_bits);
    ASSERT_EQ(values, want) << "case " << c << " n=" << n
                            << " key_bits=" << key_bits;
  }
}

TEST(FastPath, UniformCodeBatchMatchesElementwiseHash) {
  const rng::HashKind kinds[] = {rng::HashKind::kMix64, rng::HashKind::kMd5,
                                 rng::HashKind::kSha1};
  const unsigned widths[] = {1, 13, 32, 64};
  const auto ids = make_ids(257, 0xba7c4ULL);
  std::vector<std::uint64_t> batch;

  rng::SplitMix64 gen(0xc0deull);
  for (const rng::HashKind kind : kinds) {
    for (const unsigned width : widths) {
      const std::uint64_t seed = gen();
      rng::uniform_code_batch(kind, seed, ids, width, batch);
      ASSERT_EQ(batch.size(), ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(batch[i],
                  rng::uniform_code(kind, seed, ids[i], width).value())
            << to_string(kind) << " width=" << width << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reuse machinery: rebuild() and the per-thread arenas.

// One channel built over 50,000 ids at H = 32, then rebuilt across
// population sizes, tree heights, hash kinds and slot timings: every
// rebuild must answer its rounds exactly like a channel constructed fresh
// from the same arguments and like ExactChannel, airtime included.
TEST(FastPath, RebuildEquivalentToFreshConstruction) {
  const auto start_ids = make_ids(50000, 0x5eedULL);
  chan::SortedPetChannelConfig first;
  first.manufacturing_seed = 111;
  chan::SortedPetChannel reused(start_ids, first);
  {
    const core::PetEstimator estimator(core::PetConfig{}, {0.05, 0.01});
    chan::SortedPetChannel fresh(start_ids, first);
    expect_result_identical(estimator.estimate_with_rounds(reused, 8, 42),
                            estimator.estimate_with_rounds(fresh, 8, 42));
  }

  const rng::HashKind kinds[] = {rng::HashKind::kMd5, rng::HashKind::kSha1,
                                 rng::HashKind::kMix64};
  std::uint64_t c = 0;
  for (const std::size_t n : {0u, 1u, 65u, 2000u}) {
    for (const unsigned height : {5u, 32u, 64u}) {
      ++c;
      const auto ids = make_ids(n, 0x5eedULL + c);
      chan::SortedPetChannelConfig config;
      config.tree_height = height;
      config.hash = kinds[c % std::size(kinds)];
      config.manufacturing_seed = 200 + c;
      config.timing.command_us = static_cast<sim::SimTime>(40 + 25 * c);
      core::PetConfig pet_config;
      pet_config.tree_height = height;
      const core::PetEstimator estimator(pet_config, {0.05, 0.01});
      SCOPED_TRACE(testing::Message() << "n=" << n << " H=" << height
                                      << " hash=" << to_string(config.hash));

      reused.rebuild(ids, config);
      EXPECT_EQ(reused.tag_count(), n);
      reused.reset_ledger();
      const auto got = estimator.estimate_with_rounds(reused, 8, 43 + c);

      chan::SortedPetChannel fresh(ids, config);
      expect_result_identical(got,
                              estimator.estimate_with_rounds(fresh, 8, 43 + c));
      chan::ExactChannel exact = exact_twin(ids, config);
      expect_result_identical(got,
                              estimator.estimate_with_rounds(exact, 8, 43 + c));
    }
  }
}

// The channel keeps no view of the ids it hashed, so a channel built over a
// temporary vector — destroyed before the first round — and rebuilt over
// another temporary stays valid (the sanitizer jobs run this under ASan).
TEST(FastPath, ChannelOutlivesTheIdsItWasBuiltFrom) {
  const core::PetEstimator estimator(core::PetConfig{}, {0.05, 0.01});
  chan::SortedPetChannelConfig config;
  config.manufacturing_seed = 7;
  chan::SortedPetChannel channel(make_ids(3000, 0x7e3dULL), config);
  chan::SortedPetChannel fresh(make_ids(3000, 0x7e3dULL), config);
  expect_result_identical(estimator.estimate_with_rounds(channel, 8, 9),
                          estimator.estimate_with_rounds(fresh, 8, 9));

  config.manufacturing_seed = 8;
  channel.rebuild(make_ids(700, 0x7e3eULL), config);
  channel.reset_ledger();
  EXPECT_EQ(channel.tag_count(), 700u);
  chan::SortedPetChannel rebuilt_fresh(make_ids(700, 0x7e3eULL), config);
  expect_result_identical(estimator.estimate_with_rounds(channel, 8, 10),
                          estimator.estimate_with_rounds(rebuilt_fresh, 8, 10));

  // A height the constructor refuses throws and keeps the last build.
  chan::SortedPetChannelConfig refused = config;
  refused.tree_height = 0;
  EXPECT_THROW(channel.rebuild(make_ids(10, 1), refused), PreconditionError);
  channel.reset_ledger();
  rebuilt_fresh.reset_ledger();
  EXPECT_EQ(channel.tag_count(), 700u);
  expect_result_identical(estimator.estimate_with_rounds(channel, 8, 11),
                          estimator.estimate_with_rounds(rebuilt_fresh, 8, 11));
}

// The arena alternates between two populations of different sizes and tree
// heights, and the slot timing changes between most trials, so every trial
// must rebuild over its own ids and bill its own config's slot length.
TEST(FastPath, SortedChannelArenaMatchesFreshChannels) {
  const std::vector<TagId> populations[] = {make_ids(800, 0xa4e4aULL),
                                            make_ids(5000, 0xa4e4bULL)};
  const unsigned heights[] = {32, 20};
  const sim::SimTime command_us[] = {300, 50, 50, 1000, 50, 300};

  for (std::uint64_t trial = 0; trial < std::size(command_us); ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::vector<TagId>& ids = populations[trial % 2];
    core::PetConfig config;
    config.tree_height = heights[trial % 2];
    const core::PetEstimator estimator(config, {0.05, 0.01});
    chan::SortedPetChannelConfig channel_config;
    channel_config.tree_height = config.tree_height;
    channel_config.manufacturing_seed = 1000 + trial;
    channel_config.timing.command_us = command_us[trial];
    chan::SortedPetChannel& arena =
        chan::arena_sorted_pet_channel(ids, channel_config);
    EXPECT_EQ(arena.tag_count(), ids.size());
    const auto got = estimator.estimate_with_rounds(arena, 6, 77 + trial);
    arena.flush_obs();

    chan::SortedPetChannel fresh(ids, channel_config);
    const auto want = estimator.estimate_with_rounds(fresh, 6, 77 + trial);
    expect_result_identical(got, want);
  }
}

// Moving a vector keeps its buffer but not its address; the arena must
// build over the vector it is handed, not the moved-from one it saw first.
TEST(FastPath, SortedChannelArenaFollowsItsVector) {
  auto a = make_ids(1000, 0x40feULL);
  chan::SortedPetChannelConfig channel_config;
  channel_config.manufacturing_seed = 31;
  (void)chan::arena_sorted_pet_channel(a, channel_config);

  const std::vector<TagId> b = std::move(a);
  channel_config.manufacturing_seed = 32;
  chan::SortedPetChannel& arena =
      chan::arena_sorted_pet_channel(b, channel_config);
  EXPECT_EQ(arena.tag_count(), b.size());

  const core::PetEstimator estimator(core::PetConfig{}, {0.05, 0.01});
  const auto got = estimator.estimate_with_rounds(arena, 6, 5);
  arena.flush_obs();
  chan::SortedPetChannel fresh(b, channel_config);
  expect_result_identical(got, estimator.estimate_with_rounds(fresh, 6, 5));
}

TEST(FastPath, SampledChannelArenaMatchesFreshChannels) {
  core::PetConfig config;
  const core::PetEstimator estimator(config, {0.05, 0.01});

  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const std::uint64_t n = 100 + 37 * trial;
    const std::uint64_t chan_seed = 500 + trial;
    chan::SampledChannel& arena = chan::arena_sampled_channel(n, chan_seed);
    const auto got = estimator.estimate_with_rounds(arena, 6, 13 + trial);

    chan::SampledChannel fresh(n, chan_seed);
    const auto want = estimator.estimate_with_rounds(fresh, 6, 13 + trial);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    expect_result_identical(got, want);
  }
}

}  // namespace

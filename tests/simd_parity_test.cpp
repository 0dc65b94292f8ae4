// SIMD/scalar parity battery for the batch hashing kernels
// (src/rng/hash_simd.cpp): every dispatch tier must produce byte-identical
// uniform_code_batch output to the scalar loop — across widths, every tail
// length 0..4*lanes, unaligned buffers, and the degenerate counts around
// one vector's worth of ids.  The scalar loop itself is pinned to the
// element-wise uniform_code oracle by fastpath_test.cpp, so equality here
// transitively pins every tier to the public contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/simd.hpp"
#include "rng/hash_family.hpp"
#include "rng/hash_simd.hpp"
#include "rng/prng.hpp"
#include "tags/population.hpp"

namespace {

using namespace pet;

// Restores the process-wide SIMD cap on scope exit so a failing assertion
// cannot leak a pinned tier into later tests (same shape as FastPathGuard).
class SimdGuard {
 public:
  explicit SimdGuard(SimdTier cap) : prev_(simd_tier()) { set_simd(cap); }
  ~SimdGuard() { set_simd(prev_); }
  SimdGuard(const SimdGuard&) = delete;
  SimdGuard& operator=(const SimdGuard&) = delete;

 private:
  SimdTier prev_;
};

std::vector<TagId> make_ids(std::size_t n, std::uint64_t seed) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

// Tiers above scalar, in dispatch-preference order.  A tier the host CPU
// lacks clamps to a lower one inside simd_tier(); the comparison below is
// then scalar-vs-scalar, which keeps the battery meaningful on every
// architecture while exercising all real tiers where they exist.
constexpr SimdTier kVectorTiers[] = {SimdTier::kAvx2, SimdTier::kAvx512};

std::vector<std::uint64_t> batch_at_tier(SimdTier cap, rng::HashKind kind,
                                         std::uint64_t seed,
                                         const std::vector<TagId>& ids,
                                         unsigned width) {
  SimdGuard guard(cap);
  std::vector<std::uint64_t> out;
  rng::uniform_code_batch(kind, seed, ids, width, out);
  return out;
}

TEST(SimdParity, TierMetadataIsConsistent) {
  EXPECT_EQ(simd_lanes(SimdTier::kScalar), 1u);
  EXPECT_EQ(simd_lanes(SimdTier::kAvx2), 4u);
  EXPECT_EQ(simd_lanes(SimdTier::kAvx512), 8u);
  EXPECT_EQ(to_string(SimdTier::kScalar), "scalar");
  EXPECT_EQ(to_string(SimdTier::kAvx2), "avx2");
  EXPECT_EQ(to_string(SimdTier::kAvx512), "avx512");
  // The active tier never exceeds what the CPU supports, whatever the cap.
  SimdGuard guard(SimdTier::kAvx512);
  EXPECT_LE(simd_tier(), detected_simd_tier());
}

TEST(SimdParity, SetSimdBoolRoundTrips) {
  const SimdTier before = simd_tier();
  set_simd(false);
  EXPECT_EQ(simd_tier(), SimdTier::kScalar);
  set_simd(true);
  EXPECT_EQ(simd_tier(), detected_simd_tier());
  set_simd(before);
}

// Seeded fuzz: random (n, width, seed) cases per tier, byte-compared to the
// scalar batch.  Mirrors the RadixSortMatchesStdSortFuzz shape.
TEST(SimdParity, FuzzAllTiersMatchScalar) {
  rng::SplitMix64 gen(0x51d5eedULL);
  for (const SimdTier tier : kVectorTiers) {
    unsigned active_lanes = 0;
    {
      SimdGuard guard(tier);
      active_lanes = simd_lanes(simd_tier());
    }
    SCOPED_TRACE(testing::Message()
                 << "tier cap " << to_string(tier) << " (active lanes "
                 << active_lanes << ")");
    for (int c = 0; c < 60; ++c) {
      const std::size_t n = static_cast<std::size_t>(gen() % 3000);
      const unsigned width = 1 + static_cast<unsigned>(gen() % 64);
      const std::uint64_t seed = gen();
      const auto ids = make_ids(n, gen());
      const auto scalar = batch_at_tier(SimdTier::kScalar,
                                        rng::HashKind::kMix64, seed, ids,
                                        width);
      const auto vector = batch_at_tier(tier, rng::HashKind::kMix64, seed,
                                        ids, width);
      ASSERT_EQ(vector, scalar) << "case " << c << " n=" << n
                                << " width=" << width << " seed=" << seed;
    }
  }
}

// Every tail length 0..4*lanes for every tier: the loop peels whole
// vectors, so each n in this range lands a different (vector count, tail
// length) pair, including tail == 0 and the all-tail n < lanes cases.
TEST(SimdParity, EveryTailLengthMatchesScalar) {
  rng::SplitMix64 gen(0x7a11ULL);
  for (const SimdTier tier : kVectorTiers) {
    unsigned lanes = 0;
    {
      SimdGuard guard(tier);
      lanes = simd_lanes(simd_tier());
    }
    for (std::size_t n = 0; n <= 4 * std::size_t{lanes}; ++n) {
      const std::uint64_t seed = gen();
      const auto ids = make_ids(n, 0xbeefULL + n);
      for (const unsigned width : {1u, 13u, 32u, 64u}) {
        const auto scalar = batch_at_tier(SimdTier::kScalar,
                                          rng::HashKind::kMix64, seed, ids,
                                          width);
        const auto vector = batch_at_tier(tier, rng::HashKind::kMix64, seed,
                                          ids, width);
        ASSERT_EQ(vector, scalar)
            << to_string(tier) << " n=" << n << " width=" << width;
      }
    }
  }
}

// n in {0, 1, lanes-1, lanes, lanes+1}: the boundary counts around one
// vector's worth of ids, where a peeling off-by-one would read or write
// past the batch.
TEST(SimdParity, VectorBoundaryCountsMatchScalar) {
  rng::SplitMix64 gen(0xb0daULL);
  for (const SimdTier tier : kVectorTiers) {
    unsigned lanes = 0;
    {
      SimdGuard guard(tier);
      lanes = simd_lanes(simd_tier());
    }
    const std::size_t counts[] = {0, 1, lanes - 1, lanes,
                                  std::size_t{lanes} + 1};
    for (const std::size_t n : counts) {
      const std::uint64_t seed = gen();
      const auto ids = make_ids(n, seed ^ 0x1d5ULL);
      const auto scalar = batch_at_tier(SimdTier::kScalar,
                                        rng::HashKind::kMix64, seed, ids, 32);
      const auto vector =
          batch_at_tier(tier, rng::HashKind::kMix64, seed, ids, 32);
      ASSERT_EQ(vector, scalar) << to_string(tier) << " n=" << n;
    }
  }
}

// Unaligned input and output: the kernels use unaligned loads/stores, so a
// span starting one word into an allocation (8-byte aligned, off every
// vector boundary) must hash identically.  This drives the internal kernel
// entry point directly to control the output pointer too.
TEST(SimdParity, UnalignedBuffersMatchOracle) {
  constexpr std::uint64_t kSeed = 0xa15ea5e5ULL;
  const std::uint64_t seed_mix = rng::mix64(kSeed ^ 0x9e3779b97f4a7c15ULL);
  const auto aligned_ids = make_ids(130, 0x0ddba11ULL);

  std::vector<std::uint64_t> id_storage(aligned_ids.size() + 1, 0);
  for (std::size_t i = 0; i < aligned_ids.size(); ++i) {
    id_storage[i + 1] = to_underlying(aligned_ids[i]);
  }
  std::vector<std::uint64_t> out_storage(aligned_ids.size() + 1, 0);

  for (const SimdTier tier : kVectorTiers) {
    SimdGuard guard(tier);
    for (const unsigned width : {7u, 32u, 64u}) {
      std::fill(out_storage.begin(), out_storage.end(), 0);
      const bool used_simd = rng::detail::mix64_code_batch_simd(
          seed_mix, id_storage.data() + 1, aligned_ids.size(), width,
          out_storage.data() + 1);
      if (!used_simd) {
        // Tier unavailable on this host/arch (e.g. an AVX2 cap on a CPU
        // without AVX2 clamps to scalar): the contract is that nothing was
        // written.
        for (const std::uint64_t word : out_storage) {
          ASSERT_EQ(word, 0u) << to_string(tier) << " width=" << width;
        }
        continue;
      }
      for (std::size_t i = 0; i < aligned_ids.size(); ++i) {
        ASSERT_EQ(out_storage[i + 1],
                  rng::uniform_code(rng::HashKind::kMix64, kSeed,
                                    aligned_ids[i], width)
                      .value())
            << to_string(tier) << " width=" << width << " i=" << i;
      }
    }
  }
}

// The digest-based families never dispatch through the SIMD tiers; pinning
// the tier must not perturb them.
TEST(SimdParity, DigestFamiliesUnaffectedByTier) {
  const auto ids = make_ids(33, 0xd16e57ULL);
  for (const rng::HashKind kind : {rng::HashKind::kMd5, rng::HashKind::kSha1}) {
    const auto want =
        batch_at_tier(SimdTier::kScalar, kind, 0x1234ULL, ids, 32);
    for (const SimdTier tier : kVectorTiers) {
      EXPECT_EQ(batch_at_tier(tier, kind, 0x1234ULL, ids, 32), want)
          << to_string(kind) << " at " << to_string(tier);
    }
  }
}

}  // namespace

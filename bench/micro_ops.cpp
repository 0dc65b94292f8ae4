// google-benchmark micro benchmarks: the primitive operations whose costs
// dominate the simulator — hash families, code generation, per-round PET
// queries on each channel substrate, and full vanilla and robust estimates.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "channel/exact_channel.hpp"
#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "common/radix.hpp"
#include "core/estimator.hpp"
#include "core/robust_estimator.hpp"
#include "obs/metrics.hpp"
#include "rng/hash_family.hpp"
#include "rng/md5.hpp"
#include "rng/prng.hpp"
#include "rng/sha1.hpp"
#include "tags/population.hpp"

namespace {

using namespace pet;

void BM_SplitMix64(benchmark::State& state) {
  rng::SplitMix64 gen(1);
  for (auto _ : state) benchmark::DoNotOptimize(gen());
}
BENCHMARK(BM_SplitMix64);

void BM_Xoshiro256(benchmark::State& state) {
  rng::Xoshiro256ss gen(1);
  for (auto _ : state) benchmark::DoNotOptimize(gen());
}
BENCHMARK(BM_Xoshiro256);

void BM_HashUniform64(benchmark::State& state) {
  const auto kind = static_cast<rng::HashKind>(state.range(0));
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::uniform64(kind, 42, ++id));
  }
  state.SetLabel(std::string(rng::to_string(kind)));
}
BENCHMARK(BM_HashUniform64)->Arg(0)->Arg(1)->Arg(2);

void BM_Md5Digest64Bytes(benchmark::State& state) {
  const std::string msg(64, 'x');
  for (auto _ : state) benchmark::DoNotOptimize(rng::Md5::hash(msg));
}
BENCHMARK(BM_Md5Digest64Bytes);

void BM_Sha1Digest64Bytes(benchmark::State& state) {
  const std::string msg(64, 'x');
  for (auto _ : state) benchmark::DoNotOptimize(rng::Sha1::hash(msg));
}
BENCHMARK(BM_Sha1Digest64Bytes);

std::vector<TagId> tags_for(std::int64_t n) {
  const auto pop =
      tags::TagPopulation::generate(static_cast<std::size_t>(n), 7);
  return {pop.ids().begin(), pop.ids().end()};
}

void BM_PetRoundExactChannel(benchmark::State& state) {
  chan::ExactChannel channel(tags_for(state.range(0)));
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  std::uint64_t r = 0;
  for (auto _ : state) {
    const BitCode path =
        rng::uniform_code(rng::HashKind::kMix64, ++r, 1, 32);
    channel.begin_round(chan::RoundConfig{path, 0, false, 32, 32});
    benchmark::DoNotOptimize(estimator.run_round(channel));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PetRoundExactChannel)->Range(1000, 1000000)->Complexity();

void BM_PetRoundSampledChannel(benchmark::State& state) {
  chan::SampledChannel channel(static_cast<std::uint64_t>(state.range(0)), 3);
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  std::uint64_t r = 0;
  for (auto _ : state) {
    const BitCode path =
        rng::uniform_code(rng::HashKind::kMix64, ++r, 1, 32);
    channel.begin_round(chan::RoundConfig{path, 0, false, 32, 32});
    benchmark::DoNotOptimize(estimator.run_round(channel));
  }
}
BENCHMARK(BM_PetRoundSampledChannel)->Range(1000, 1000000);

void BM_FullEstimate50kTags(benchmark::State& state) {
  chan::SortedPetChannel channel(tags_for(50000));
  const core::PetEstimator estimator(core::PetConfig{}, {0.05, 0.01});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(channel, ++seed));
  }
}
BENCHMARK(BM_FullEstimate50kTags)->Unit(benchmark::kMillisecond);

// -- obs overhead (docs/observability.md records the numbers) -------------
//
// BM_ObsCounterAddDisabled is the cost every instrumentation site pays when
// observability is compiled in but off: one relaxed load + branch.
// BM_ObsCounterAddEnabled adds the thread-local shard fetch_add.
// BM_PetRoundObs{Off,Counters} measure the real hot path — a full PET round
// on the sorted channel — under both levels; their ratio is the "<= 2%
// disabled overhead" acceptance number (compare Off against a
// -DPET_OBS=OFF build of the same benchmark for the compiled-out floor).

void BM_ObsCounterAddDisabled(benchmark::State& state) {
  obs::set_level(obs::Level::kOff);
  const obs::Counter counter =
      obs::MetricsRegistry::instance().counter("micro.obs.disabled");
  for (auto _ : state) {
    if (obs::counters_enabled()) counter.add();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsCounterAddDisabled);

void BM_ObsCounterAddEnabled(benchmark::State& state) {
  obs::set_level(obs::Level::kCounters);
  const obs::Counter counter =
      obs::MetricsRegistry::instance().counter("micro.obs.enabled");
  for (auto _ : state) {
    if (obs::counters_enabled()) counter.add();
    benchmark::ClobberMemory();
  }
  obs::set_level(obs::Level::kOff);
}
BENCHMARK(BM_ObsCounterAddEnabled);

void pet_round_at_level(benchmark::State& state, obs::Level level) {
  obs::set_level(level);
  chan::SortedPetChannel channel(tags_for(100000));
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  std::uint64_t r = 0;
  for (auto _ : state) {
    const BitCode path = rng::uniform_code(rng::HashKind::kMix64, ++r, 1, 32);
    channel.begin_round(chan::RoundConfig{path, 0, false, 32, 32});
    benchmark::DoNotOptimize(estimator.run_round(channel));
  }
  obs::set_level(obs::Level::kOff);
}

void BM_PetRoundObsOff(benchmark::State& state) {
  pet_round_at_level(state, obs::Level::kOff);
}
BENCHMARK(BM_PetRoundObsOff);

void BM_PetRoundObsCounters(benchmark::State& state) {
  pet_round_at_level(state, obs::Level::kCounters);
}
BENCHMARK(BM_PetRoundObsCounters);

// -- fast-round pipeline (docs/performance.md records the numbers) --------
//
// BM_SortedBuildChannel times the per-trial channel construction the sweeps
// pay for every fresh manufacturing seed: SortedPetChannel::rebuild, two
// chunked batched-hash passes that count codes per bucket and then place
// them.  BM_SortedBuildStdSort (element-wise hash + std::sort) and
// BM_SortedBuildRadix (batched hash + key-width-capped LSD radix sort) are
// the two fully sorted builds the channel used before, kept as baselines.
// BM_PetRound isolates one estimation round on the sorted channel: one
// bucket scan for the round's depth, then the descent's probes.
// BM_UniformCodeBatch is one hashing pass, half of what a channel build
// hashes.

void BM_SortedBuildStdSort(benchmark::State& state) {
  const auto ids = tags_for(state.range(0));
  std::vector<std::uint64_t> codes;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    codes.clear();
    codes.reserve(ids.size());
    for (const TagId id : ids) {
      codes.push_back(
          rng::uniform_code(rng::HashKind::kMix64, ++seed, id, 32).value());
    }
    std::sort(codes.begin(), codes.end());
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SortedBuildStdSort)->Range(1000, 1000000)->Complexity();

void BM_SortedBuildRadix(benchmark::State& state) {
  const auto ids = tags_for(state.range(0));
  std::vector<std::uint64_t> codes;
  std::vector<std::uint64_t> scratch;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    rng::uniform_code_batch(rng::HashKind::kMix64, ++seed, ids, 32, codes);
    radix_sort_u64(codes, scratch, 32);
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SortedBuildRadix)->Range(1000, 1000000)->Complexity();

void BM_SortedBuildChannel(benchmark::State& state) {
  const auto ids = tags_for(state.range(0));
  chan::SortedPetChannel channel(ids);
  chan::SortedPetChannelConfig config;
  for (auto _ : state) {
    ++config.manufacturing_seed;
    channel.rebuild(ids, config);
    benchmark::DoNotOptimize(channel.tag_count());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SortedBuildChannel)->Range(1000, 1000000)->Complexity();

void BM_UniformCodeBatch(benchmark::State& state) {
  const auto ids = tags_for(state.range(0));
  std::vector<std::uint64_t> codes;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    rng::uniform_code_batch(rng::HashKind::kMix64, ++seed, ids, 32, codes);
    benchmark::DoNotOptimize(codes.data());
  }
}
BENCHMARK(BM_UniformCodeBatch)->Range(1000, 1000000);

void BM_PetRound(benchmark::State& state) {
  chan::SortedPetChannel channel(tags_for(state.range(0)));
  const core::PetEstimator estimator(core::PetConfig{}, {0.1, 0.05});
  std::uint64_t r = 0;
  for (auto _ : state) {
    const BitCode path = rng::uniform_code(rng::HashKind::kMix64, ++r, 1, 32);
    channel.begin_round(chan::RoundConfig{path, 0, false, 32, 32});
    benchmark::DoNotOptimize(estimator.run_round(channel));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PetRound)
    ->Range(1000, 1000000)
    ->Arg(50000)  // the sweep's n
    ->Complexity();

// -- robust vs vanilla estimate (docs/performance.md records the numbers) --
//
// One (ε, δ) = (0.1, 0.05) estimate at n = 2 000, i.e. 713 rounds by
// Eq. (20), on the sorted channel with obs at `counters`, as petd runs a
// cache miss.  BM_RobustEstimate adds the default 3-read/2-quorum vote,
// the trimmed-mean fusion and the channel-health KS to
// BM_VanillaEstimate's rounds; their ratio is what the robust pipeline
// costs.
template <typename Estimator>
void estimate_at_counters(benchmark::State& state,
                          const Estimator& estimator) {
  obs::set_level(obs::Level::kCounters);
  chan::SortedPetChannel channel(tags_for(2000));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    channel.reset_ledger();
    benchmark::DoNotOptimize(estimator.estimate(channel, ++seed));
  }
  obs::set_level(obs::Level::kOff);
}

void BM_VanillaEstimate(benchmark::State& state) {
  estimate_at_counters(state,
                       core::PetEstimator(core::PetConfig{}, {0.1, 0.05}));
}
BENCHMARK(BM_VanillaEstimate)->Unit(benchmark::kMicrosecond);

void BM_RobustEstimate(benchmark::State& state) {
  estimate_at_counters(
      state, core::RobustPetEstimator(core::RobustPetConfig{}, {0.1, 0.05}));
}
BENCHMARK(BM_RobustEstimate)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

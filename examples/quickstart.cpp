// Quickstart: estimate the cardinality of an RFID tag population with PET.
//
//   $ ./quickstart [tag_count]
//
// Walks through the whole public API in ~40 lines: make a population, pick
// an accuracy contract, build a channel, run the estimator, inspect costs.
#include <cstdio>
#include <cstdlib>

#include "channel/sorted_pet_channel.hpp"
#include "core/estimator.hpp"
#include "core/planner.hpp"
#include "tags/population.hpp"

int main(int argc, char** argv) {
  using namespace pet;

  // 1. A population of passive tags.  Each tag's only protocol state is a
  //    preloaded 32-bit random code derived from its factory ID.
  const std::size_t tag_count =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 50000;
  const auto population = tags::TagPopulation::generate(tag_count, /*seed=*/7);

  // 2. The accuracy contract of the paper's Section 3: the estimate must
  //    land within +/-5% of the truth with 99% probability.
  const stats::AccuracyRequirement requirement{0.05, 0.01};

  // 3. The protocol configuration: H = 32 tree, Algorithm 3 binary search
  //    (5 slots/round), preloaded codes.  plan() predicts the cost before
  //    touching the air.
  const core::PetConfig config;
  const core::PetPlan plan = core::plan(config, requirement);
  std::printf("plan: %llu rounds x %u slots = %llu slots, "
              "%llu bits of tag memory\n",
              static_cast<unsigned long long>(plan.rounds),
              plan.slots_per_round,
              static_cast<unsigned long long>(plan.total_slots),
              static_cast<unsigned long long>(plan.tag_memory_bits));

  // 4. A channel over the population and the estimator itself.
  chan::SortedPetChannel channel(population.ids());
  const core::PetEstimator estimator(config, requirement);
  const core::EstimateResult result = estimator.estimate(channel, /*seed=*/1);

  // 5. Results and measured costs.
  std::printf("true count : %zu\n", population.size());
  std::printf("estimate   : %.0f  (accuracy %.4f)\n", result.n_hat,
              result.n_hat / static_cast<double>(population.size()));
  std::printf("cost       : %llu slots, %llu downlink bits, %.1f ms airtime\n",
              static_cast<unsigned long long>(result.ledger.total_slots()),
              static_cast<unsigned long long>(result.ledger.reader_bits),
              static_cast<double>(result.ledger.airtime_us) / 1000.0);
  const bool ok =
      result.n_hat >= requirement.interval_lo(static_cast<double>(tag_count)) &&
      result.n_hat <= requirement.interval_hi(static_cast<double>(tag_count));
  std::printf("within +/-5%% interval: %s\n", ok ? "yes" : "no");
  return 0;
}

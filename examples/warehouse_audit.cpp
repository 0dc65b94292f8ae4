// Warehouse audit: the paper's motivating cargo-shipping scenario
// (Sections 1 and 3).  A distribution center receives containers holding
// tens of thousands of tagged products and must verify the shipped amount
// quickly — the exact count is unnecessary, a +/-5% guarantee suffices.
//
// The example audits a sequence of inbound containers, comparing:
//   * PET estimation (seconds of air time), against
//   * full DFSA identification (the "count by reading every tag" way),
// and flags containers whose estimated quantity deviates from the manifest.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "channel/sorted_pet_channel.hpp"
#include "core/estimator.hpp"
#include "protocols/identification.hpp"
#include "tags/population.hpp"

int main() {
  using namespace pet;

  struct Container {
    const char* manifest_desc;
    std::size_t declared;  // units on the shipping manifest
    std::size_t actual;    // units actually inside
  };
  const std::vector<Container> shipment = {
      {"pallets of beverages", 42000, 42000},
      {"apparel cartons", 18000, 18000},
      {"electronics (pilfered!)", 30000, 24500},   // 18% missing
      {"pharma totes", 55000, 55000},
      {"spare parts (overpacked)", 8000, 9600},    // 20% extra
  };

  const stats::AccuracyRequirement requirement{0.05, 0.01};
  const core::PetConfig config;
  const core::PetEstimator estimator(config, requirement);
  const sim::SlotTiming timing;  // EPC-like 0.4 ms slots

  std::printf("dock-door audit: +/-5%% at 99%% confidence, "
              "%llu rounds x %u slots per container\n\n",
              static_cast<unsigned long long>(estimator.planned_rounds()),
              config.worst_case_slots_per_round());
  std::printf("%-28s %9s %9s %9s %8s %10s  %s\n", "container", "declared",
              "actual", "estimate", "PET(s)", "identify(s)", "verdict");

  std::uint64_t seed = 100;
  for (const Container& container : shipment) {
    const auto pop = tags::TagPopulation::generate(container.actual, seed);
    chan::SortedPetChannel channel(pop.ids());
    const auto result = estimator.estimate(channel, seed);

    // What full identification of this container would cost (sampled DFSA:
    // same slot count distribution as reading every tag for real).
    const auto id = proto::identify_dfsa_sampled(container.actual,
                                                 proto::DfsaConfig{}, seed);
    const double pet_seconds =
        static_cast<double>(result.ledger.total_slots() * timing.slot_us()) /
        1e6;
    const double id_seconds =
        static_cast<double>(id.ledger.total_slots() * timing.slot_us()) / 1e6;

    // Accept iff the declared quantity lies inside the estimate's +/-eps
    // band around the estimate (equivalently |nhat - declared| <= eps*nhat
    // up to rounding; a real deployment would widen by the estimator's own
    // tolerance).
    const double declared = static_cast<double>(container.declared);
    const bool accept =
        std::abs(result.n_hat - declared) <= 0.07 * declared;
    std::printf("%-28s %9zu %9zu %9.0f %8.1f %10.1f  %s\n",
                container.manifest_desc, container.declared, container.actual,
                result.n_hat, pet_seconds, id_seconds,
                accept ? "ACCEPT" : "INSPECT");
    ++seed;
  }

  std::printf("\nPET verifies a container in seconds; identification would "
              "hold the dock for minutes.\n");
  return 0;
}

// Dynamic monitoring: continuous cardinality tracking of a changing tag
// population — the "dynamic tag set" robustness requirement of Section 3.
//
// A logistics yard sees trucks arrive (tags join) and depart (tags leave)
// through a working day.  A monitoring loop re-estimates every epoch with a
// cheap, loose contract and escalates to a tight contract whenever the
// count swings by more than 20% — showing how PET's tunable accuracy
// (Fig. 4) maps to an operational knob.
#include <cstdio>
#include <cmath>

#include "channel/sorted_pet_channel.hpp"
#include "core/estimator.hpp"
#include "tags/population.hpp"

namespace {

double estimate_now(const pet::tags::TagPopulation& yard,
                    const pet::core::PetEstimator& estimator,
                    std::uint64_t seed, std::uint64_t* slots) {
  pet::chan::SortedPetChannel channel(yard.ids());
  const auto result = estimator.estimate(channel, seed);
  *slots = result.ledger.total_slots();
  return result.n_hat;
}

}  // namespace

int main() {
  using namespace pet;

  tags::TagPopulation yard = tags::TagPopulation::generate(8000, 11);

  // Two operating points: a cheap tracking contract and a tight audit one.
  const core::PetEstimator tracker(core::PetConfig{}, {0.15, 0.10});
  const core::PetEstimator auditor(core::PetConfig{}, {0.05, 0.01});

  std::printf("yard monitor: loose contract (+/-15%% @ 90%%) every epoch, "
              "tight audit (+/-5%% @ 99%%) on >20%% swings\n\n");
  std::printf("%5s %8s %10s %10s %9s  %s\n", "epoch", "truth", "tracked",
              "audited", "slots", "events");

  struct Epoch {
    std::size_t join;
    std::size_t leave;
    const char* what;
  };
  const Epoch day[] = {
      {500, 300, "overnight trickle"},
      {6000, 200, "morning inbound convoy"},
      {400, 500, "midday balance"},
      {300, 9000, "afternoon outbound push"},
      {200, 100, "evening lull"},
      {12000, 0, "surprise bulk arrival"},
  };

  double last_estimate = static_cast<double>(yard.size());
  std::uint64_t seed = 1;
  int epoch = 0;
  for (const Epoch& e : day) {
    yard.join_fresh(e.join, 1000 + seed);
    yard.leave_random(e.leave, 2000 + seed);

    std::uint64_t slots = 0;
    const double tracked = estimate_now(yard, tracker, seed, &slots);

    const bool swing =
        std::abs(tracked - last_estimate) > 0.2 * last_estimate;
    double audited = std::nan("");
    if (swing) {
      std::uint64_t audit_slots = 0;
      audited = estimate_now(yard, auditor, seed + 5000, &audit_slots);
      slots += audit_slots;
    }
    last_estimate = swing ? audited : tracked;

    if (swing) {
      std::printf("%5d %8zu %10.0f %10.0f %9llu  %s  [AUDIT]\n", epoch,
                  yard.size(), tracked, audited,
                  static_cast<unsigned long long>(slots), e.what);
    } else {
      std::printf("%5d %8zu %10.0f %10s %9llu  %s\n", epoch, yard.size(),
                  tracked, "-", static_cast<unsigned long long>(slots),
                  e.what);
    }
    ++seed;
    ++epoch;
  }

  std::printf("\ntracking costs %llu slots/epoch; audits cost %llu — the "
              "accuracy/time trade of Fig. 4 as an operational knob.\n",
              static_cast<unsigned long long>(tracker.planned_rounds() * 5),
              static_cast<unsigned long long>(auditor.planned_rounds() * 5));
  return 0;
}

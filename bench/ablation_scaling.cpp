// Ablation — asymptotic scaling: slots per estimate as the population grows
// from 10^2 to 10^6, for
//   * PET with binary search        (O(log log n) per round, constant here
//                                    because H is fixed at 32),
//   * PET with the linear walk      (O(log n) per round, like FNEB/LoF),
//   * DFSA identification           (Theta(n)),
//   * tree-walking identification   (Theta(n)).
//
// This regenerates the paper's headline complexity claim as data.
//
// The second table benchmarks the construction path itself —
// SortedPetChannel::rebuild, whose two SIMD batch-hash passes count the
// codes per bucket and then place them — at populations up to 10^8
// (docs/performance.md).  Its golden-gated cells are the deterministic ones
// (n, rebuilds, a checksum of the final rebuild's codes re-derived and
// radix-sorted, identical across SIMD tiers and --threads); tags/sec is
// machine profile and goes to stderr plus the benchdiff-ignored obs
// metrics only.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "channel/sorted_pet_channel.hpp"
#include "common/radix.hpp"
#include "common/simd.hpp"
#include "core/estimator.hpp"
#include "harness/experiment.hpp"
#include "harness/options.hpp"
#include "harness/report.hpp"
#include "harness/table.hpp"
#include "protocols/identification.hpp"
#include "rng/hash_family.hpp"
#include "runtime/trial_runner.hpp"
#include "tags/population.hpp"

namespace {

struct IdentifySlots {
  double dfsa = 0;
  double tree = 0;
};

// FNV-1a over the sorted code values: any reordering or single-bit drift in
// the build output changes the cell, so the golden gate pins byte-identity
// of the whole array without storing it.
std::string code_checksum(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t v : values) {
    h = (h ^ v) * 1099511628211ULL;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pet;
  const auto options = bench::BenchOptions::parse(
      argc, argv,
      "Scaling ablation: slots vs population size for PET (binary/linear) "
      "and the identification baselines.");
  bench::BenchSession session(options, "ablation_scaling");
  // Identification at n = 10^6 is slow-ish; a handful of runs suffices for
  // Theta(n) numbers.
  const std::uint64_t id_runs = std::min<std::uint64_t>(options.runs, 10);

  const stats::AccuracyRequirement req{0.05, 0.01};
  core::PetConfig binary;
  core::PetConfig linear;
  linear.search = core::SearchMode::kLinear;

  bench::TablePrinter table(
      "Scaling: mean slots per estimate / identification pass",
      {"n", "PET binary (Alg.3)", "PET linear (Alg.1)", "DFSA identify",
       "TreeWalk identify"},
      options.csv);
  table.bind(&session.report());

  for (const std::uint64_t n : {100ull, 1000ull, 10000ull, 100000ull,
                                1000000ull}) {
    // The per-run channel build is O(n); scale repetitions down for
    // the million-tag cells (slot counts are deterministic given the mode).
    const std::uint64_t pet_runs =
        n >= 100000 ? std::max<std::uint64_t>(options.runs / 10, 10)
                    : options.runs;
    const auto pet_bs =
        bench::run_pet(n, binary, req, 0, pet_runs, options.seed);
    const auto pet_lin =
        bench::run_pet(n, linear, req, 0, pet_runs, options.seed + 1);

    // The EPC Q <= 15 frame cap saturates beyond ~10^5 tags (DFSA stalls
    // with zero singletons per frame); lift the cap with the population so
    // the Theta(n) trend stays measurable.
    proto::DfsaConfig dfsa_config;
    dfsa_config.max_frame_size =
        std::max<std::uint64_t>(dfsa_config.max_frame_size, 2 * n);

    double dfsa_slots = 0;
    double tree_slots = 0;
    runtime::global_runner().run<IdentifySlots>(
        id_runs,
        [&](std::uint64_t r) {
          IdentifySlots slots;
          slots.dfsa = static_cast<double>(
              proto::identify_dfsa_sampled(n, dfsa_config,
                                           options.seed + 100 + r)
                  .ledger.total_slots());
          slots.tree = static_cast<double>(
              proto::identify_treewalk_sampled(n, proto::TreeWalkConfig{},
                                               options.seed + 200 + r)
                  .ledger.total_slots());
          return slots;
        },
        [&](std::uint64_t, IdentifySlots&& slots) {
          dfsa_slots += slots.dfsa;
          tree_slots += slots.tree;
        },
        "identification");
    dfsa_slots /= static_cast<double>(id_runs);
    tree_slots /= static_cast<double>(id_runs);

    table.add_row({bench::TablePrinter::num(n),
                   bench::TablePrinter::num(pet_bs.mean_slots_per_estimate, 0),
                   bench::TablePrinter::num(pet_lin.mean_slots_per_estimate, 0),
                   bench::TablePrinter::num(dfsa_slots, 0),
                   bench::TablePrinter::num(tree_slots, 0)});
  }
  table.print();

  // --- Build throughput -------------------------------------------------
  // Full runs take the 10^6/10^7/10^8 points; --quick (which is what
  // generates bench/golden/) stays at sizes the gate can afford.
  const bool quick = options.runs <= 30;
  const std::vector<std::uint64_t> build_sizes =
      quick ? std::vector<std::uint64_t>{200000ull, 1000000ull}
            : std::vector<std::uint64_t>{1000000ull, 10000000ull,
                                         100000000ull};
  bench::TablePrinter build_table(
      "Build throughput: SIMD batch hash + radix-sorted codes (H=64)",
      {"n", "rebuilds", "codes checksum"}, options.csv);
  build_table.bind(&session.report());

  for (const std::uint64_t n : build_sizes) {
    const auto pop = tags::TagPopulation::generate(n, options.seed + 77);
    const std::uint64_t rebuilds = n >= 100000000ull ? 2 : 5;

    chan::SortedPetChannelConfig config;
    config.tree_height = 64;
    config.manufacturing_seed = options.seed + 7000;
    const auto start = std::chrono::steady_clock::now();
    chan::SortedPetChannel channel(pop.ids(), config);
    for (std::uint64_t r = 1; r < rebuilds; ++r) {
      config.manufacturing_seed = options.seed + 7000 + r;
      channel.rebuild(pop.ids(), config);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    // The checksum re-derives the final rebuild's codes with the batch hash
    // the channel uses and sorts them, so it does not depend on the
    // channel's bucket order.
    std::vector<std::uint64_t> codes;
    rng::uniform_code_batch(config.hash, options.seed + 7000 + rebuilds - 1,
                            pop.ids(), config.tree_height, codes);
    std::vector<std::uint64_t> scratch;
    radix_sort_u64(codes, scratch, config.tree_height);

    build_table.add_row({bench::TablePrinter::num(n),
                         bench::TablePrinter::num(rebuilds),
                         code_checksum(codes)});
    if (!options.quiet) {
      std::fprintf(stderr, "build n=%llu: %.0f tags/s over %llu builds (%s)\n",
                   static_cast<unsigned long long>(n),
                   static_cast<double>(n * rebuilds) / wall,
                   static_cast<unsigned long long>(rebuilds),
                   to_string(simd_tier()).data());
    }
  }
  build_table.print();
  return 0;
}

// Workload `sweep`: the table3 grid (n = 50,000, H = 32, m = 8..1024,
// preloaded codes) on the TrialRunner at 4 threads, in process.
//
// Set-up is pass 0, the golden grid at 30 runs per point: at seed 1 its
// rows must equal bench/golden/BENCH_table3_pet_slots.json exactly.  The
// timed window then runs whole passes of the paper's 300 runs per point
// (2,400 trials each) until the window is spent.  Code construction (hash
// + radix sort) dominates a trial, so rng, common and channel changes show
// here; service and petd do nothing.
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "channel/arena.hpp"
#include "core/estimator.hpp"
#include "obs/jsonlite.hpp"
#include "rng/prng.hpp"
#include "runtime/cancel.hpp"
#include "runtime/trial_runner.hpp"
#include "stats/accuracy.hpp"
#include "tags/population.hpp"
#include "workloads.hpp"

namespace pet::perf {

namespace {

constexpr std::uint64_t kTags = 50000;
constexpr std::array<std::uint64_t, 8> kRounds{8,   16,  32,  64,
                                               128, 256, 512, 1024};
/// Algorithm 3 at H = 32 spends exactly ceil(log2 H) = 5 slots per round.
constexpr std::uint64_t kSlotsPerRound = 5;
/// bench/golden/ holds the --quick artifact: 30 runs per point.
constexpr std::uint64_t kGoldenRuns = 30;
/// The paper's 300 runs per point.
constexpr std::uint64_t kTimedRuns = 300;
constexpr unsigned kThreads = 4;
/// table3_pet_slots' population seed: seed 1 reproduces its inputs.
constexpr std::uint64_t kTable3PopulationSeed = 0xdecafULL;

struct Trial {
  double n_hat = 0.0;
  std::uint64_t slots = 0;
  std::uint64_t rounds = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t built_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One table3 row, folded in trial order exactly as the bench harness does.
struct GridRow {
  stats::TrialSummary summary{static_cast<double>(kTags)};
  double mean_slots = 0.0;
};

/// The end-to-end figures of one timed pass.  A run reports their medians
/// over its passes, so outside load during a few passes does not move it.
struct PassFigures {
  double throughput = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cpu_per_air = 0.0;
};

/// Trials folded over one half of the window.
struct Window {
  std::uint64_t trials = 0;
  std::uint64_t slots = 0;
  std::uint64_t rounds = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t estimate_ns = 0;
  std::uint64_t wall_ns = 0;
  std::vector<double> trial_us;
  std::vector<double> build_us;
  std::vector<double> estimate_us;
  std::vector<PassFigures> passes;

  /// Median over passes of one figure.
  [[nodiscard]] double median(double PassFigures::*figure) const {
    std::vector<double> values;
    for (const PassFigures& pass : passes) values.push_back(pass.*figure);
    return quantile(values, 0.5);
  }
};

[[nodiscard]] std::string fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

class Sweep {
 public:
  Sweep(const RunConfig& config, WorkloadResult& result)
      : config_(config), result_(result) {
    runner_.set_cancel_token(runtime::CancelToken::linked_to_shutdown());
  }

  /// Generate the population and run pass 0; returns its seconds.
  double setup() {
    const std::uint64_t start = now_ns();
    ids_.clear();
    const auto population = tags::TagPopulation::generate(
        kTags, kTable3PopulationSeed + (config_.seed - 1));
    ids_.assign(population.ids().begin(), population.ids().end());
    Window ignored;
    const std::vector<GridRow> rows = pass(0, kGoldenRuns, ignored, nullptr);
    const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
    if (config_.seed == 1) check_golden(rows);
    return seconds;
  }

  /// Run whole timed passes until `seconds` have elapsed.
  void run_window(double seconds, Window& window, SpanLog* spans) {
    const std::uint64_t start = now_ns();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() - start < budget && !runtime::shutdown_requested()) {
      const std::size_t first = window.trial_us.size();
      const std::uint64_t slots = window.slots;
      const double cpu = process_cpu_s();
      const std::uint64_t pass_start = now_ns();
      (void)pass(++timed_passes_, kTimedRuns, window, spans);
      const auto wall_s = static_cast<double>(now_ns() - pass_start) * 1e-9;
      const double air_s =
          static_cast<double>(window.slots - slots) * slot_us_ * 1e-6;
      std::vector<double> trial_us(
          window.trial_us.begin() + static_cast<std::ptrdiff_t>(first),
          window.trial_us.end());
      PassFigures figures;
      figures.throughput = static_cast<double>(trial_us.size()) / wall_s;
      figures.p50_us = quantile(trial_us, 0.50);
      figures.p99_us = quantile(trial_us, 0.99);
      figures.cpu_per_air = air_s > 0.0 ? (process_cpu_s() - cpu) / air_s : 0.0;
      window.passes.push_back(figures);
    }
    window.wall_ns = now_ns() - start;
  }

 private:
  /// One grid pass.  Pass 0 uses table3's seeds (master seed + m); timed
  /// pass p derives its own master seed from (seed, p).
  std::vector<GridRow> pass(std::uint64_t index, std::uint64_t runs,
                            Window& window, SpanLog* spans) {
    const std::uint64_t master =
        index == 0 ? config_.seed : rng::derive_seed(config_.seed, index);
    const std::uint64_t trials = runs * kRounds.size();
    auto trial = [this, runs, master](std::uint64_t t) {
      const std::uint64_t m = kRounds[t / runs];
      const std::uint64_t run = t % runs;
      const std::uint64_t seed = master + m;
      chan::SortedPetChannelConfig channel_config;
      channel_config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
      Trial out;
      out.start_ns = now_ns();
      chan::SortedPetChannel& channel =
          chan::arena_sorted_pet_channel(ids_, channel_config);
      out.built_ns = now_ns();
      const core::EstimateResult estimate = estimator_.estimate_with_rounds(
          channel, m, rng::derive_seed(seed, 2 * run + 1));
      channel.flush_obs();
      out.end_ns = now_ns();
      out.n_hat = estimate.n_hat;
      out.slots = estimate.ledger.total_slots();
      out.rounds = estimate.rounds;
      return out;
    };

    std::vector<GridRow> rows(kRounds.size());
    const std::uint64_t folded = runner_.run<Trial>(
        trials, trial, [&](std::uint64_t t, Trial&& out) {
          const std::size_t point = static_cast<std::size_t>(t / runs);
          const std::uint64_t m = kRounds[point];
          rows[point].summary.add(out.n_hat);
          rows[point].mean_slots +=
              static_cast<double>(out.slots) / static_cast<double>(runs);
          result_.attempt();
          if (out.slots != kSlotsPerRound * m) {
            result_.fail("pass " + std::to_string(index) + " trial " +
                         std::to_string(t) + ": ledger " +
                         std::to_string(out.slots) + " slots, want 5m = " +
                         std::to_string(kSlotsPerRound * m));
          }
          ++window.trials;
          window.slots += out.slots;
          window.rounds += out.rounds;
          window.busy_ns += out.end_ns - out.start_ns;
          window.estimate_ns += out.end_ns - out.built_ns;
          window.trial_us.push_back(
              static_cast<double>(out.end_ns - out.start_ns) * 1e-3);
          window.build_us.push_back(
              static_cast<double>(out.built_ns - out.start_ns) * 1e-3);
          window.estimate_us.push_back(
              static_cast<double>(out.end_ns - out.built_ns) * 1e-3);
          if (spans != nullptr) {
            const std::uint64_t id =
                spans->add(0, "runtime.trial", t, out.start_ns, out.end_ns);
            spans->add(id, "channel.build", t, out.start_ns, out.built_ns);
            spans->add(id, "core.estimate", t, out.built_ns, out.end_ns);
          }
        });
    if (folded != trials) result_.fail("sweep interrupted");
    return rows;
  }

  void check_golden(const std::vector<GridRow>& rows) {
    std::ifstream in(config_.golden_path);
    if (!in) {
      result_.fail("cannot read golden " + config_.golden_path);
      return;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    obs::JsonValue golden;
    try {
      golden = obs::parse_json(text);
    } catch (const std::exception& e) {
      result_.fail(std::string("golden does not parse: ") + e.what());
      return;
    }
    const obs::JsonValue* golden_rows = golden.find("rows");
    std::size_t matched = 0;
    for (const obs::JsonValue& row : golden_rows != nullptr
                                         ? golden_rows->array
                                         : std::vector<obs::JsonValue>{}) {
      const obs::JsonValue* m = row.find("rounds m");
      if (m == nullptr) continue;
      for (std::size_t point = 0; point < kRounds.size(); ++point) {
        if (m->string != std::to_string(kRounds[point])) continue;
        ++matched;
        const GridRow& mine = rows[point];
        const std::pair<const char*, std::string> cells[] = {
            {"slots (measured)", fixed(mine.mean_slots, 1)},
            {"accuracy nhat/n", fixed(mine.summary.accuracy(), 4)},
            {"normalized sigma",
             fixed(mine.summary.normalized_deviation(), 4)}};
        for (const auto& [column, value] : cells) {
          const obs::JsonValue* want = row.find(column);
          if (want == nullptr || want->string != value) {
            result_.fail("golden row m=" + m->string + " " + column + ": " +
                         value + " != " +
                         (want == nullptr ? "(missing)" : want->string));
          }
        }
      }
    }
    if (matched != kRounds.size()) {
      result_.fail("golden has " + std::to_string(matched) + " of " +
                   std::to_string(kRounds.size()) + " table3 rows");
    }
  }

  const RunConfig& config_;
  WorkloadResult& result_;
  const double slot_us_ = air_slot_us();
  const core::PetEstimator estimator_{core::PetConfig{},
                                      stats::AccuracyRequirement{0.05, 0.01}};
  // Declared before the runner: worker-thread channel arenas reference it
  // until the runner's threads have exited.
  std::vector<TagId> ids_;
  runtime::TrialRunner runner_{kThreads, false};
  std::uint64_t timed_passes_ = 0;
};

}  // namespace

void run_sweep(const RunConfig& config, WorkloadResult& result) {
  Sweep sweep(config, result);
  std::vector<double> setups;
  for (unsigned rep = 0; rep < config.setup_reps; ++rep) {
    setups.push_back(sweep.setup());
  }

  const double half = config.traced() ? config.seconds / 2 : config.seconds;
  Window untraced;
  sweep.run_window(half, untraced, nullptr);

  if (!config.traced()) {
    const std::uint64_t n = untraced.trial_us.size();
    result.set("throughput", untraced.median(&PassFigures::throughput), n);
    result.set("p50_us", untraced.median(&PassFigures::p50_us), n);
    result.set("p99_us", untraced.median(&PassFigures::p99_us), n);
    result.set("cpu_per_air", untraced.median(&PassFigures::cpu_per_air), n);
    result.set("rss_mb", max_rss_mb());
    result.set("setup_s", quantile(setups, 0.5), setups.size());
    result.note("p999_us", "us", quantile(untraced.trial_us, 0.999), n);
    result.note("passes", "count", static_cast<double>(untraced.passes.size()));
    result.note("window_s", "s", static_cast<double>(untraced.wall_ns) * 1e-9);
    return;
  }

  config.spans->begin_workload(result.workload());
  Window traced;
  sweep.run_window(half, traced, config.spans);
  const std::uint64_t n = traced.trials;
  result.set("runtime.busy_ratio",
             traced.wall_ns == 0
                 ? 0.0
                 : static_cast<double>(traced.busy_ns) /
                       (static_cast<double>(traced.wall_ns) * kThreads),
             n);
  result.set("channel.build_us", quantile(traced.build_us, 0.5), n);
  result.set("core.estimate_us", quantile(traced.estimate_us, 0.5), n);
  result.set("core.ns_per_round",
             traced.rounds == 0 ? 0.0
                                : static_cast<double>(traced.estimate_ns) /
                                      static_cast<double>(traced.rounds),
             traced.rounds);
  result.set("core.rounds_per_req",
             n == 0 ? 0.0 : static_cast<double>(traced.rounds) / static_cast<double>(n), n);
  result.set("core.slots_per_req",
             n == 0 ? 0.0 : static_cast<double>(traced.slots) / static_cast<double>(n), n);
  result.set("trace_overhead",
             trace_overhead_percent(untraced.median(&PassFigures::throughput),
                                    traced.median(&PassFigures::throughput)));
  run_microbenches(config, result);
}

}  // namespace pet::perf

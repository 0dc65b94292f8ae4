// petsim — command-line front end to the PET RFID estimation library.
//
//   petsim plan     --eps=0.05 --delta=0.01
//   petsim estimate --protocol=pet --n=50000 --eps=0.05 --delta=0.01
//                   [--search=binary|strict|linear] [--loss=0.1]
//                   [--readers=4 --overlap=0.3] [--seed=1]
//                   [--runs=500 --threads=8 --quiet]
//                   [--mac=ideal|gen2 --capture=0.6]
//   petsim identify --protocol=dfsa|treewalk --n=20000 [--seed=1]
//   petsim monitor  --n=10000 --steps=40 [--seed=1]
//
// --runs > 1 replays that many independent trials on the pet::runtime
// parallel trial engine (--threads workers, default hardware concurrency)
// and reports the aggregate; results are bit-identical for any --threads
// (docs/runtime.md).  Everything is simulated on the slotted-MAC
// substrate; see README.md.
//
// Observability (docs/observability.md): --obs=off|counters|full selects
// the level, --metrics-out=FILE writes the pet.obs.v1 metrics document,
// --trace-jsonl=FILE streams span/event records.  Requesting an output
// upgrades the level to the one that produces it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/arena.hpp"
#include "channel/device_channel.hpp"
#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "common/ensure.hpp"
#include "common/parse_number.hpp"
#include "core/confidence.hpp"
#include "core/estimator.hpp"
#include "core/monitor.hpp"
#include "core/planner.hpp"
#include "core/robust_estimator.hpp"
#include "core/sketch.hpp"
#include "gen2/channel.hpp"
#include "multireader/controller.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "protocols/ezb.hpp"
#include "protocols/fneb.hpp"
#include "protocols/identification.hpp"
#include "protocols/lof.hpp"
#include "protocols/upe.hpp"
#include "rng/prng.hpp"
#include "runtime/cancel.hpp"
#include "runtime/trial_runner.hpp"
#include "sim/gen2_timing.hpp"
#include "sim/trace.hpp"
#include "stats/accuracy.hpp"
#include "tags/mobility.hpp"
#include "tags/population.hpp"

namespace {

using namespace pet;

struct Args {
  std::map<std::string, std::string> kv;

  /// --key as a number of the fallback's type; a value that is not
  /// entirely a number throws std::invalid_argument.
  template <typename T>
  [[nodiscard]] T get(const std::string& key, T fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback
                          : parse_number<T>(it->second,
                                            "--" + key + "=" + it->second);
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const char* fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "petsim: bad argument '%s'\n", arg);
      std::exit(2);
    }
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) {
      args.kv[arg + 2] = "1";
    } else {
      args.kv[std::string(arg + 2, eq)] = eq + 1;
    }
  }
  return args;
}

/// Flags each command reads, besides the observability flags every command
/// takes.  Returns nullptr for an unknown command.
const std::vector<std::string>* command_flags(const std::string& command) {
  static const std::map<std::string, std::vector<std::string>> kFlags = {
      {"plan", {"eps", "delta", "n"}},
      {"estimate",
       {"protocol", "n", "eps", "delta", "seed", "runs", "threads", "quiet",
        "mac", "capture", "search", "fusion", "robust", "loss", "readers",
        "overlap", "trace", "trace-format"}},
      {"identify", {"protocol", "n", "seed"}},
      {"monitor", {"n", "steps", "seed"}},
      {"sketch", {"n-a", "n-b", "shared", "rounds", "seed"}},
  };
  const auto it = kFlags.find(command);
  return it == kFlags.end() ? nullptr : &it->second;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  petsim plan     --eps=E --delta=D [--n=N]\n"
      "  petsim estimate --protocol=pet|fneb|lof|upe|ezb --n=N --eps=E "
      "--delta=D\n"
      "                  [--search=binary|strict|linear]\n"
      "                  [--fusion=paper|bias-corrected|median-of-means]\n"
      "                  [--mac=ideal|gen2] [--capture=P]\n"
      "                  [--loss=P] [--robust]\n"
      "                  [--readers=K --overlap=P] [--trace=FILE "
      "--trace-format=csv|jsonl] [--seed=S]\n"
      "                  [--runs=R --threads=T --quiet]\n"
      "  petsim identify --protocol=dfsa|treewalk --n=N [--seed=S]\n"
      "  petsim monitor  --n=N --steps=T [--seed=S]\n"
      "  petsim sketch   --n-a=N --n-b=M --shared=K [--rounds=R]\n"
      "\n"
      "observability (every command):\n"
      "  --obs=off|counters|full   metrics level (default off)\n"
      "  --metrics-out=FILE        write pet.obs.v1 metrics JSON "
      "(implies counters)\n"
      "  --trace-jsonl=FILE        write span/event JSONL (implies full)\n");
  return 2;
}

/// Observability wiring for one petsim invocation: resolves the level from
/// --obs / --metrics-out / --trace-jsonl, installs the trace writer and the
/// trial hook, and writes the metrics document after the command returns.
struct ObsSession {
  std::string metrics_path;
  std::string trace_path;
  std::ofstream trace_file;
  std::unique_ptr<obs::TraceWriter> writer;
  obs::PhaseProfiler profiler;

  /// Returns 0, or 2 on a bad flag / unwritable trace path.
  int init(const Args& args) {
    metrics_path = args.get("metrics-out", "");
    trace_path = args.get("trace-jsonl", "");
    obs::Level level = obs::Level::kOff;
    const std::string requested = args.get("obs", "");
    if (!requested.empty()) {
      try {
        level = obs::parse_level(requested);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "petsim: %s\n", error.what());
        return 2;
      }
    }
    // Requesting an output implies the level that produces it.
    if (!metrics_path.empty() && level == obs::Level::kOff) {
      level = obs::Level::kCounters;
    }
    if (!trace_path.empty()) level = obs::Level::kFull;
    obs::set_level(level);
    if (level == obs::Level::kOff) return 0;

    obs::MetricsRegistry::instance().reset();
    if (level == obs::Level::kFull) {
      // Workers pin the logical trial coordinate so trace records from a
      // --runs sweep are attributable.
      runtime::set_trial_begin_hook(&obs::set_trace_trial);
      if (!trace_path.empty()) {
        trace_file.open(trace_path);
        if (!trace_file) {
          std::fprintf(stderr, "petsim: cannot open trace file '%s'\n",
                       trace_path.c_str());
          return 2;
        }
        writer = std::make_unique<obs::TraceWriter>(trace_file);
        obs::set_trace_writer(writer.get());
      }
    }
    return 0;
  }

  /// Simulated slots recorded so far (for phase slots/second).
  [[nodiscard]] static std::uint64_t recorded_slots() {
    const obs::Snapshot snapshot = obs::MetricsRegistry::instance().snapshot();
    return snapshot.counter("chan.ledger.idle_slots") +
           snapshot.counter("chan.ledger.singleton_slots") +
           snapshot.counter("chan.ledger.collision_slots") +
           snapshot.counter("chan.ledger.retry_slots");
  }

  void finish() {
    obs::set_trace_writer(nullptr);
    if (!obs::counters_enabled() || metrics_path.empty()) return;
    auto& runner = runtime::global_runner();
    const runtime::ThreadPool::Stats stats = runner.pool_stats();
    obs::PoolSample pool;
    pool.threads = runner.thread_count();
    pool.submitted = stats.submitted;
    pool.stolen = stats.stolen;
    pool.max_queue_depth = stats.max_queue_depth;
    pool.worker_tasks = stats.worker_tasks;
    try {
      obs::write_metrics_file(metrics_path, profiler.phases(), pool);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "petsim: metrics not written: %s\n", error.what());
    }
  }
};

double gen2_seconds(const sim::SlotLedger& ledger, std::uint64_t rounds) {
  const sim::Gen2LinkConfig link;
  return sim::gen2_session_us(link, ledger.singleton_slots +
                                        ledger.collision_slots,
                              ledger.idle_slots, 32, 1, rounds, 32) /
         1e6;
}

int cmd_plan(const Args& args) {
  const stats::AccuracyRequirement req{args.get("eps", 0.05),
                                       args.get("delta", 0.01)};
  const double n = args.get("n", 50000.0);
  const core::PetPlan pet = core::plan(core::PetConfig{}, req, n);
  const proto::FnebEstimator fneb(proto::FnebConfig{}, req);
  const proto::LofEstimator lof(proto::LofConfig{}, req);

  std::printf("accuracy contract: |nhat - n| <= %.1f%% n with probability "
              ">= %.1f%%\n\n",
              req.epsilon * 100, (1 - req.delta) * 100);
  std::printf("%-8s %10s %14s %14s %16s\n", "protocol", "rounds",
              "slots/round", "total slots", "tag memory bits");
  std::printf("%-8s %10llu %14u %14llu %16llu\n", "PET",
              static_cast<unsigned long long>(pet.rounds),
              pet.slots_per_round,
              static_cast<unsigned long long>(pet.total_slots),
              static_cast<unsigned long long>(pet.tag_memory_bits));
  const std::uint64_t fneb_spr =
      static_cast<std::uint64_t>(std::log2(16.0 * n)) + 1;
  std::printf("%-8s %10llu %14llu %14llu %16llu\n", "FNEB",
              static_cast<unsigned long long>(fneb.planned_rounds()),
              static_cast<unsigned long long>(fneb_spr),
              static_cast<unsigned long long>(fneb.planned_rounds() *
                                              fneb_spr),
              static_cast<unsigned long long>(32 * fneb.planned_rounds()));
  std::printf("%-8s %10llu %14u %14llu %16llu\n", "LoF",
              static_cast<unsigned long long>(lof.planned_rounds()), 32u,
              static_cast<unsigned long long>(32 * lof.planned_rounds()),
              static_cast<unsigned long long>(32 * lof.planned_rounds()));
  return 0;
}

/// --runs=R > 1: replay R independent trials of the plain single-reader
/// protocol on the parallel trial engine and report the aggregate.  Seed
/// streams mirror bench/harness/experiment.cpp, so a petsim sweep and the
/// bench harness agree estimate-for-estimate.
int cmd_estimate_many(const std::string& protocol, std::uint64_t n,
                      const stats::AccuracyRequirement& req,
                      const core::PetConfig& pet_config, std::uint64_t runs,
                      std::uint64_t seed) {
  stats::TrialSummary summary(static_cast<double>(n));
  double total_slots = 0.0;

  const auto pop = tags::TagPopulation::generate(n, 0xdecafULL);
  const auto start = std::chrono::steady_clock::now();
  auto& runner = runtime::global_runner();

  // The runner reports how many trials actually folded: a SIGINT/SIGTERM
  // drain stops at a trial boundary and the aggregates below rescale to the
  // prefix that completed.
  std::uint64_t folded = 0;

  auto fold = [&](std::uint64_t, core::EstimateResult&& result) {
    summary.add(result.n_hat);
    total_slots += static_cast<double>(result.ledger.total_slots());
  };

  if (protocol == "pet") {
    const core::PetEstimator estimator(pet_config, req);
    const std::uint64_t m = estimator.planned_rounds();
    folded = runner.run<core::EstimateResult>(
        runs,
        [&](std::uint64_t run) {
          chan::SortedPetChannelConfig channel_config;
          channel_config.tree_height = pet_config.tree_height;
          channel_config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
          // Per-thread arena: each trial rebuilds the retained channel
          // from the population's ids, bit-identical to a fresh one.
          chan::SortedPetChannel& channel =
              chan::arena_sorted_pet_channel(pop.ids(), channel_config);
          auto result = estimator.estimate_with_rounds(
              channel, m, rng::derive_seed(seed, 2 * run + 1));
          channel.flush_obs();
          return result;
        },
        fold, "PET trials");
  } else {
    // The rehash-per-round baselines all run on the sampled channel; only
    // the estimator (and its historical seed stride) differs.
    auto sweep = [&](std::uint64_t stride, const auto& estimator) {
      folded = runner.run<core::EstimateResult>(
          runs,
          [&](std::uint64_t run) {
            const std::uint64_t chan_seed = rng::derive_seed(seed, stride * run);
            chan::SampledChannel& channel =
                chan::arena_sampled_channel(n, chan_seed);
            return estimator.estimate(
                channel, rng::derive_seed(seed, stride * run + 1));
          },
          fold, protocol + " trials");
    };
    if (protocol == "fneb") {
      sweep(3, proto::FnebEstimator(proto::FnebConfig{}, req));
    } else if (protocol == "lof") {
      sweep(5, proto::LofEstimator(proto::LofConfig{}, req));
    } else if (protocol == "upe") {
      proto::UpeConfig config;
      config.expected_n = static_cast<double>(n);
      sweep(7, proto::UpeEstimator(config, req));
    } else if (protocol == "ezb") {
      sweep(11, proto::EzbEstimator(proto::EzbConfig{}, req));
    } else {
      return usage();
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (folded == 0) {
    std::printf("%s sweep    : interrupted before any trial folded\n",
                protocol.c_str());
    return 130;
  }
  std::printf("%s sweep    : %llu trials, %u threads\n", protocol.c_str(),
              static_cast<unsigned long long>(folded), runner.thread_count());
  if (folded < runs) {
    std::printf("truncated    : %llu of %llu trials folded (shutdown)\n",
                static_cast<unsigned long long>(folded),
                static_cast<unsigned long long>(runs));
  }
  std::printf("mean nhat    : %.0f   (true %llu, accuracy %.4f)\n",
              summary.accuracy() * static_cast<double>(n),
              static_cast<unsigned long long>(n), summary.accuracy());
  std::printf("normalized sigma: %.4f\n", summary.normalized_deviation());
  std::printf("within eps   : %.3f (contract needs >= %.3f)\n",
              summary.fraction_within(req.epsilon), 1.0 - req.delta);
  std::printf("mean slots   : %.1f per estimate\n",
              total_slots / static_cast<double>(folded));
  std::printf("wall time    : %.3f s (%.1f trials/s)\n", wall,
              static_cast<double>(folded) / wall);
  return 0;
}

/// --mac=gen2 --runs=R: the same sweep over the measured EPC C1G2 MAC
/// (gen2::Gen2PrefixChannel — Select+Query probes, real command bits,
/// optional capture/loss impairments).  Seed strides mirror
/// cmd_estimate_many (derive(seed, 2 run) manufacturing, derive(seed,
/// 2 run + 1) estimation) plus the robustness-bench impairment stream
/// derive(seed, 500 + run).
int cmd_estimate_many_gen2(const std::string& protocol, std::uint64_t n,
                           const stats::AccuracyRequirement& req,
                           std::uint64_t runs, std::uint64_t seed,
                           double capture, double loss) {
  stats::TrialSummary summary(static_cast<double>(n));
  double total_slots = 0.0;
  double total_airtime_us = 0.0;

  const auto pop = tags::TagPopulation::generate(n, 0xdecafULL);
  const std::vector<TagId> ids(pop.ids().begin(), pop.ids().end());
  const auto start = std::chrono::steady_clock::now();
  auto& runner = runtime::global_runner();
  std::uint64_t folded = 0;

  auto fold = [&](std::uint64_t, core::EstimateResult&& result) {
    summary.add(result.n_hat);
    total_slots += static_cast<double>(result.ledger.total_slots());
    total_airtime_us += static_cast<double>(result.ledger.airtime_us);
  };
  auto sweep = [&](const auto& estimator) {
    folded = runner.run<core::EstimateResult>(
        runs,
        [&](std::uint64_t run) {
          gen2::Gen2ChannelConfig config;
          config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
          config.impairments.capture.capture_prob = capture;
          config.impairments.reply_loss_prob = loss;
          config.impairments.seed = rng::derive_seed(seed, 500 + run);
          gen2::Gen2PrefixChannel channel(ids, config);
          return estimator.estimate(channel,
                                    rng::derive_seed(seed, 2 * run + 1));
        },
        fold, protocol + " gen2 trials");
  };

  if (protocol == "pet") {
    sweep(core::PetEstimator(core::PetConfig{}, req));
  } else if (protocol == "fneb") {
    sweep(proto::FnebEstimator(proto::FnebConfig{}, req));
  } else if (protocol == "lof") {
    sweep(proto::LofEstimator(proto::LofConfig{}, req));
  } else if (protocol == "upe") {
    proto::UpeConfig config;
    config.expected_n = static_cast<double>(n);
    sweep(proto::UpeEstimator(config, req));
  } else if (protocol == "ezb") {
    sweep(proto::EzbEstimator(proto::EzbConfig{}, req));
  } else {
    return usage();
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (folded == 0) {
    std::printf("%s gen2 sweep: interrupted before any trial folded\n",
                protocol.c_str());
    return 130;
  }
  std::printf("%s gen2 sweep: %llu trials, %u threads (capture %.2f, "
              "loss %.2f)\n",
              protocol.c_str(), static_cast<unsigned long long>(folded),
              runner.thread_count(), capture, loss);
  if (folded < runs) {
    std::printf("truncated    : %llu of %llu trials folded (shutdown)\n",
                static_cast<unsigned long long>(folded),
                static_cast<unsigned long long>(runs));
  }
  std::printf("mean nhat    : %.0f   (true %llu, accuracy %.4f)\n",
              summary.accuracy() * static_cast<double>(n),
              static_cast<unsigned long long>(n), summary.accuracy());
  std::printf("normalized sigma: %.4f\n", summary.normalized_deviation());
  std::printf("within eps   : %.3f (contract needs >= %.3f)\n",
              summary.fraction_within(req.epsilon), 1.0 - req.delta);
  std::printf("mean slots   : %.1f per estimate\n",
              total_slots / static_cast<double>(folded));
  std::printf("mean airtime : %.3f s per estimate (Tari 6.25us Miller-4)\n",
              total_airtime_us / static_cast<double>(folded) / 1e6);
  std::printf("wall time    : %.3f s (%.1f trials/s)\n", wall,
              static_cast<double>(folded) / wall);
  return 0;
}

/// --robust --runs=R: the hardened pipeline on the device-level channel
/// with optional iid reply loss.  Seed streams mirror
/// bench/robustness_bench.cpp (derive(seed, run) manufacturing,
/// derive(seed, 500 + run) impairments, derive(seed, 1000 + run)
/// estimation), so a petsim sweep reproduces the bench trial-for-trial.
int cmd_estimate_robust_many(std::uint64_t n,
                             const stats::AccuracyRequirement& req,
                             const core::RobustPetConfig& config,
                             std::uint64_t runs, std::uint64_t seed,
                             double loss) {
  stats::TrialSummary summary(static_cast<double>(n));
  double total_slots = 0.0;
  std::uint64_t rereads = 0;
  std::uint64_t at_risk = 0;

  const auto pop = tags::TagPopulation::generate(n, 0xdecafULL);
  const core::RobustPetEstimator estimator(config, req);
  const auto start = std::chrono::steady_clock::now();
  auto& runner = runtime::global_runner();

  const std::uint64_t folded = runner.run<core::RobustEstimateResult>(
      runs,
      [&](std::uint64_t run) {
        chan::DeviceChannelConfig device;
        device.manufacturing_seed = rng::derive_seed(seed, run);
        device.impairments.seed = rng::derive_seed(seed, 500 + run);
        device.impairments.reply_loss_prob = loss;
        chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet,
                                    device);
        return estimator.estimate(channel, rng::derive_seed(seed, 1000 + run));
      },
      [&](std::uint64_t, core::RobustEstimateResult&& result) {
        summary.add(result.n_hat());
        total_slots += static_cast<double>(result.base.ledger.total_slots());
        rereads += result.reread_slots;
        if (result.diagnostic.contract_at_risk()) ++at_risk;
      },
      "robust PET trials");

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (folded == 0) {
    std::printf("robust sweep : interrupted before any trial folded\n");
    return 130;
  }
  std::printf("robust sweep : %llu trials, %u threads, loss %.3f\n",
              static_cast<unsigned long long>(folded), runner.thread_count(),
              loss);
  if (folded < runs) {
    std::printf("truncated    : %llu of %llu trials folded (shutdown)\n",
                static_cast<unsigned long long>(folded),
                static_cast<unsigned long long>(runs));
  }
  std::printf("mean nhat    : %.0f   (true %llu, accuracy %.4f)\n",
              summary.accuracy() * static_cast<double>(n),
              static_cast<unsigned long long>(n), summary.accuracy());
  std::printf("within eps   : %.3f (contract needs >= %.3f)\n",
              summary.fraction_within(req.epsilon), 1.0 - req.delta);
  std::printf("mean slots   : %.1f per estimate\n",
              total_slots / static_cast<double>(folded));
  std::printf("rereads/run  : %.1f\n",
              static_cast<double>(rereads) / static_cast<double>(folded));
  std::printf("at-risk frac : %.3f\n",
              static_cast<double>(at_risk) / static_cast<double>(folded));
  std::printf("wall time    : %.3f s (%.1f trials/s)\n", wall,
              static_cast<double>(folded) / wall);
  return 0;
}

int cmd_estimate(const Args& args) {
  const std::string protocol = args.get("protocol", "pet");
  const std::uint64_t n = args.get("n", std::uint64_t{50000});
  const stats::AccuracyRequirement req{args.get("eps", 0.05),
                                       args.get("delta", 0.01)};
  const std::uint64_t seed = args.get("seed", std::uint64_t{1});
  const std::uint64_t runs = args.get("runs", std::uint64_t{1});
  const auto threads = args.get("threads", 0u);
  const double capture = args.get("capture", 0.0);
  const double loss = args.get("loss", 0.0);
  const auto readers = args.get("readers", std::uint64_t{1});
  const double overlap = args.get("overlap", 0.0);
  const bool quiet = args.kv.count("quiet") != 0;
  runtime::global_runner().configure(threads, !quiet && runs > 1);

  // --mac=gen2 swaps the ideal perfect-detection channels for the measured
  // EPC C1G2 MAC (docs/gen2.md); --capture then sets the capture-effect
  // probability on that link.
  const std::string mac = args.get("mac", "ideal");
  if (mac != "ideal" && mac != "gen2") {
    std::fprintf(stderr, "petsim: --mac must be ideal or gen2\n");
    return 2;
  }
  const bool gen2_mac = mac == "gen2";

  core::EstimateResult result;
  std::uint64_t rounds = 0;

  if (protocol == "pet") {
    core::PetConfig config;
    const std::string search = args.get("search", "binary");
    if (search == "strict") config.search = core::SearchMode::kBinaryStrict;
    if (search == "linear") config.search = core::SearchMode::kLinear;
    const std::string fusion = args.get("fusion", "paper");
    if (fusion == "bias-corrected") {
      config.fusion = core::FusionRule::kBiasCorrected;
    } else if (fusion == "median-of-means") {
      config.fusion = core::FusionRule::kMedianOfMeans;
    }
    const bool robust = args.kv.count("robust") != 0;
    if (gen2_mac && (robust || readers > 1 ||
                     !args.get("trace", "").empty())) {
      std::fprintf(stderr,
                   "petsim: --mac=gen2 supports only the plain single-reader "
                   "estimate\n");
      return 2;
    }
    if (runs > 1) {
      if (gen2_mac) {
        return cmd_estimate_many_gen2(protocol, n, req, runs, seed, capture,
                                      loss);
      }
      if (robust) {
        core::RobustPetConfig robust_config;
        robust_config.base = config;
        return cmd_estimate_robust_many(n, req, robust_config, runs, seed,
                                        loss);
      }
      if (loss > 0.0 || readers > 1 || !args.get("trace", "").empty()) {
        std::fprintf(stderr,
                     "petsim: --runs > 1 supports only the plain "
                     "single-reader channel (add --robust for lossy "
                     "sweeps)\n");
        return 2;
      }
      return cmd_estimate_many(protocol, n, req, config, runs, seed);
    }
    const core::PetEstimator estimator(config, req);
    rounds = estimator.planned_rounds();

    const std::string trace_path = args.get("trace", "");
    const auto pop = tags::TagPopulation::generate(n, seed);

    if (robust) {
      // Hardened single run: device-level channel (optionally lossy),
      // voting probes, health diagnostic.
      core::RobustPetConfig robust_config;
      robust_config.base = config;
      const core::RobustPetEstimator hardened(robust_config, req);
      chan::DeviceChannelConfig device;
      device.impairments.reply_loss_prob = loss;
      chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet, device);
      const core::RobustEstimateResult robust_result =
          hardened.estimate(channel, seed);
      result = robust_result.base;
      std::printf("robust PET   : %.0f   (true %llu)\n", robust_result.n_hat(),
                  static_cast<unsigned long long>(n));
      std::printf("%.0f%% interval: [%.0f, %.0f] (widening %.2fx)\n",
                  (1 - req.delta) * 100, robust_result.interval.lo,
                  robust_result.interval.hi,
                  robust_result.diagnostic.widening);
      std::printf("health       : %s (KS %.4f vs %.4f)\n",
                  std::string(to_string(robust_result.diagnostic.health))
                      .c_str(),
                  robust_result.diagnostic.ks_distance,
                  robust_result.diagnostic.ks_threshold);
      std::printf("voting       : %llu re-read slots, %llu probes "
                  "overturned%s\n",
                  static_cast<unsigned long long>(robust_result.reread_slots),
                  static_cast<unsigned long long>(
                      robust_result.overturned_probes),
                  robust_result.retry_budget_exhausted
                      ? " (budget exhausted)"
                      : "");
    } else if (gen2_mac) {
      gen2::Gen2ChannelConfig gen2_config;
      gen2_config.manufacturing_seed = rng::derive_seed(seed, 0);
      gen2_config.impairments.capture.capture_prob = capture;
      gen2_config.impairments.reply_loss_prob = loss;
      gen2_config.impairments.seed = rng::derive_seed(seed, 2);
      gen2::Gen2PrefixChannel channel(
          {pop.ids().begin(), pop.ids().end()}, gen2_config);
      result = estimator.estimate(channel, seed);
    } else if (loss > 0.0 || !trace_path.empty()) {
      // Lossy links and per-slot tracing need the device-level channel.
      chan::DeviceChannelConfig device;
      device.impairments.reply_loss_prob = loss;
      chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet, device);
      std::ofstream trace_file;
      std::unique_ptr<sim::TraceSink> sink;
      if (!trace_path.empty()) {
        trace_file.open(trace_path);
        if (!trace_file) {
          std::fprintf(stderr, "petsim: cannot open trace file '%s'\n",
                       trace_path.c_str());
          return 2;
        }
        const std::string format = args.get("trace-format", "csv");
        if (format != "csv" && format != "jsonl") {
          std::fprintf(stderr,
                       "petsim: --trace-format must be csv or jsonl\n");
          return 2;
        }
        sink = std::make_unique<sim::TraceSink>(
            trace_file, format == "jsonl" ? sim::TraceFormat::kJsonl
                                          : sim::TraceFormat::kCsv);
        channel.set_observer(sink->observer());
      }
      result = estimator.estimate(channel, seed);
      if (sink) {
        std::printf("trace        : %llu slots written to %s\n",
                    static_cast<unsigned long long>(sink->rows_written()),
                    trace_path.c_str());
      }
    } else if (readers > 1) {
      tags::ZoneMap zones(readers, seed);
      zones.scatter(pop);
      zones.add_overlap(overlap);
      std::vector<std::unique_ptr<chan::PrefixChannel>> zone_channels;
      for (std::size_t z = 0; z < readers; ++z) {
        zone_channels.push_back(std::make_unique<chan::SortedPetChannel>(
            zones.audible_in(z)));
      }
      multi::MultiReaderController controller(std::move(zone_channels));
      result = estimator.estimate(controller, seed);
    } else {
      chan::SortedPetChannel channel(pop.ids());
      result = estimator.estimate(channel, seed);
    }
    if (!robust) {
      // The robust branch already printed its own (widened) interval.
      const auto ci = core::confidence_interval(result, req.delta);
      std::printf("PET estimate : %.0f   (true %llu)\n", result.n_hat,
                  static_cast<unsigned long long>(n));
      std::printf("%.0f%% interval: [%.0f, %.0f]\n", (1 - req.delta) * 100,
                  ci.lo, ci.hi);
    }
  } else {
    if (runs > 1) {
      if (gen2_mac) {
        return cmd_estimate_many_gen2(protocol, n, req, runs, seed, capture,
                                      loss);
      }
      return cmd_estimate_many(protocol, n, req, core::PetConfig{}, runs,
                               seed);
    }
    // Single run: the ideal occupancy-sampled channel, or the measured MAC
    // (Gen2PrefixChannel implements every baseline's channel contract).
    std::optional<chan::SampledChannel> sampled;
    std::optional<gen2::Gen2PrefixChannel> over_gen2;
    if (gen2_mac) {
      const auto pop = tags::TagPopulation::generate(n, seed);
      gen2::Gen2ChannelConfig gen2_config;
      gen2_config.manufacturing_seed = rng::derive_seed(seed, 0);
      gen2_config.impairments.capture.capture_prob = capture;
      gen2_config.impairments.reply_loss_prob = loss;
      gen2_config.impairments.seed = rng::derive_seed(seed, 2);
      over_gen2.emplace(
          std::vector<TagId>(pop.ids().begin(), pop.ids().end()),
          gen2_config);
    } else {
      sampled.emplace(n, seed);
    }
    auto run_estimator = [&](const auto& estimator) {
      return gen2_mac ? estimator.estimate(*over_gen2, seed)
                      : estimator.estimate(*sampled, seed);
    };
    if (protocol == "fneb") {
      const proto::FnebEstimator estimator(proto::FnebConfig{}, req);
      rounds = estimator.planned_rounds();
      result = run_estimator(estimator);
    } else if (protocol == "lof") {
      const proto::LofEstimator estimator(proto::LofConfig{}, req);
      rounds = estimator.planned_rounds();
      result = run_estimator(estimator);
    } else if (protocol == "upe") {
      proto::UpeConfig config;
      config.expected_n = static_cast<double>(n);
      const proto::UpeEstimator estimator(config, req);
      rounds = estimator.planned_rounds();
      result = run_estimator(estimator);
    } else if (protocol == "ezb") {
      const proto::EzbEstimator estimator(proto::EzbConfig{}, req);
      result = run_estimator(estimator);
      rounds = result.rounds;
    } else {
      return usage();
    }
    std::printf("%s estimate : %.0f   (true %llu)\n", protocol.c_str(),
                result.n_hat, static_cast<unsigned long long>(n));
  }

  std::printf("cost         : %llu slots over %llu rounds "
              "(%llu idle / %llu busy)\n",
              static_cast<unsigned long long>(result.ledger.total_slots()),
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(result.ledger.idle_slots),
              static_cast<unsigned long long>(
                  result.ledger.singleton_slots +
                  result.ledger.collision_slots));
  // Under --mac=gen2 the ledger carries the airtime actually accumulated by
  // the measured MAC; otherwise convert the slot mix analytically.
  std::printf("gen2 airtime : %.2f s (Tari 6.25 us, Miller-4%s)\n",
              gen2_mac ? static_cast<double>(result.ledger.airtime_us) / 1e6
                       : gen2_seconds(result.ledger, rounds),
              gen2_mac ? ", measured" : "");
  return 0;
}

int cmd_identify(const Args& args) {
  const std::string protocol = args.get("protocol", "dfsa");
  const std::uint64_t n = args.get("n", std::uint64_t{20000});
  const std::uint64_t seed = args.get("seed", std::uint64_t{1});

  proto::IdentificationResult result;
  if (protocol == "dfsa") {
    proto::DfsaConfig config;
    config.max_frame_size =
        std::max<std::uint64_t>(config.max_frame_size, 2 * n);
    result = proto::identify_dfsa_sampled(n, config, seed);
  } else if (protocol == "treewalk") {
    result = proto::identify_treewalk_sampled(n, proto::TreeWalkConfig{},
                                              seed);
  } else {
    return usage();
  }
  std::printf("%s identified %llu / %llu tags in %llu slots\n",
              protocol.c_str(),
              static_cast<unsigned long long>(result.identified),
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(result.ledger.total_slots()));
  return 0;
}

int cmd_sketch(const Args& args) {
  // Two sites with --n-a and --n-b tags of which --shared are stocked at
  // both (transfers in flight, say); headquarters merges the sketches.
  const std::uint64_t n_a = args.get("n-a", std::uint64_t{20000});
  const std::uint64_t n_b = args.get("n-b", std::uint64_t{15000});
  const std::uint64_t shared = args.get("shared", std::uint64_t{5000});
  const std::uint64_t rounds = args.get("rounds", std::uint64_t{2000});
  const std::uint64_t seed = args.get("seed", std::uint64_t{1});

  expects(shared <= n_a && shared <= n_b,
          "sketch: --shared must not exceed --n-a or --n-b");
  const auto universe =
      tags::TagPopulation::generate(n_a + n_b - shared, seed);

  const core::PetConfig config;
  chan::SortedPetChannel ca(universe.ids().first(n_a));
  chan::SortedPetChannel cb(universe.ids().subspan(n_a - shared));
  const auto sa = core::PetSketch::take(ca, config, rounds, seed + 7);
  const auto sb = core::PetSketch::take(cb, config, rounds, seed + 7);
  const auto fleet = core::PetSketch::merge_union(sa, sb);

  std::printf("site A       : %.0f  (true %llu)\n", sa.estimate(),
              static_cast<unsigned long long>(n_a));
  std::printf("site B       : %.0f  (true %llu)\n", sb.estimate(),
              static_cast<unsigned long long>(n_b));
  std::printf("union        : %.0f  (true %llu)\n", fleet.estimate(),
              static_cast<unsigned long long>(n_a + n_b - shared));
  std::printf("intersection : %.0f  (true %llu)\n",
              core::PetSketch::estimate_intersection(sa, sb),
              static_cast<unsigned long long>(shared));
  std::printf("wire size    : %llu bytes per sketch\n",
              static_cast<unsigned long long>(sa.serialize().size()));
  return 0;
}

int cmd_monitor(const Args& args) {
  const std::uint64_t n0 = args.get("n", std::uint64_t{10000});
  const std::uint64_t steps = args.get("steps", std::uint64_t{40});
  const std::uint64_t seed = args.get("seed", std::uint64_t{1});

  auto pop = tags::TagPopulation::generate(n0, seed);
  core::StreamingMonitor monitor(core::MonitorConfig{}, seed);

  std::printf("%6s %8s %10s %s\n", "tick", "truth", "estimate", "event");
  for (std::uint64_t t = 0; t < steps; ++t) {
    // A population step every 10 ticks: +30% joins, then a 40% departure.
    if (t == steps / 3) pop.join_fresh(n0 * 3 / 10, seed + t);
    if (t == 2 * steps / 3) pop.leave_random(pop.size() * 2 / 5, seed + t);

    chan::SortedPetChannel channel(pop.ids());
    bool changed = false;
    for (int burst = 0; burst < 16; ++burst) {
      changed = monitor.tick(channel) || changed;
    }
    const auto estimate = monitor.estimate();
    std::printf("%6llu %8zu %10.0f %s\n",
                static_cast<unsigned long long>(t), pop.size(),
                estimate.value_or(0.0), changed ? "CHANGE DETECTED" : "");
  }
  std::printf("changes detected: %llu\n",
              static_cast<unsigned long long>(monitor.changes_detected()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  const std::vector<std::string>* flags = command_flags(command);
  if (flags == nullptr) return usage();
  // A misspelt or retired flag would otherwise run with the default it was
  // meant to override.
  for (const auto& [flag, value] : args.kv) {
    if (flag != "obs" && flag != "metrics-out" && flag != "trace-jsonl" &&
        std::find(flags->begin(), flags->end(), flag) == flags->end()) {
      std::fprintf(stderr, "petsim: unknown flag --%s\n", flag.c_str());
      return 2;
    }
  }

  // Long sweeps drain gracefully: the first SIGINT/SIGTERM stops the trial
  // runner at a trial boundary and the aggregates rescale to the completed
  // prefix; a second signal force-exits.
  runtime::install_shutdown_handlers();
  runtime::global_runner().set_cancel_token(
      runtime::CancelToken::linked_to_shutdown());

  ObsSession obs_session;
  if (const int rc = obs_session.init(args); rc != 0) return rc;

  int rc = 2;
  try {
    // One profile phase per command; slots/second comes from the slot
    // counters the run recorded (zero when obs is off — the phase then
    // reports wall/CPU only).
    obs::PhaseProfiler::Scope scope(obs_session.profiler, command);
    if (command == "plan") {
      rc = cmd_plan(args);
    } else if (command == "estimate") {
      rc = cmd_estimate(args);
    } else if (command == "identify") {
      rc = cmd_identify(args);
    } else if (command == "monitor") {
      rc = cmd_monitor(args);
    } else if (command == "sketch") {
      rc = cmd_sketch(args);
    } else {
      rc = usage();
    }
    if (obs::counters_enabled()) scope.add_slots(ObsSession::recorded_slots());
  } catch (const std::logic_error& e) {
    // A flag value that is not a number (std::invalid_argument) or that
    // the library's checks refuse (PreconditionError).
    std::fprintf(stderr, "petsim: %s\n", e.what());
    return 2;
  }
  obs_session.finish();
  return rc;
}

// Extra bench — the pet::svc estimation service under load (docs/service.md).
//
// Four tables:
//   (1) "load": sustained request throughput and client-observed latency
//       percentiles (p50/p99) against >= 1k concurrently registered
//       populations, driven by parallel client threads through the full
//       frame-encode -> submit -> pool -> frame-decode path.  Timing rows:
//       they describe this machine, not the protocol, and are NOT golden
//       (stdout only, unbound from the artifact).
//   (2) "service observability": the registry's per-population fold right
//       after the load phase — request/round/slot totals and slot-unit
//       latency quantiles.  Deterministic at any --threads, so it IS bound
//       to the artifact and golden-gated.
//   (3) "overload": a deliberate burst far past the admission cap; reports
//       how much was shed with typed RESOURCE_EXHAUSTED frames vs served.
//       The served/shed split is timing-dependent: stdout only.
//   (4) "degradation": the deterministic deadline ladder — how the service
//       trades rounds for deadline slack, when it flags degraded, and when
//       it refuses with DEADLINE_EXCEEDED.  Same seed => byte-identical
//       rows at any --threads.
//   (5) "scale: 10k populations": the sharded registry + channel arenas at
//       10240 concurrently registered populations, one estimate each.  The
//       fold cells are deterministic (golden); timing goes to stdout.
//   (6) "hot/cold isolation": one hammered population vs a fixed cold
//       request script at shards=4 — the tentpole's p99-isolation claim.
//       The cold fold is deterministic (golden); the baseline-vs-contended
//       wall p99 ratio is machine profile (stdout).
//   (7) "result cache": serial repeated-seed script against the bounded
//       LRU — hits/misses/entries and the cache-invariant fold are golden;
//       the hit-vs-miss wall p50 speedup is stdout.
//
// The artifact also carries the obs "metrics" member (benchdiff-ignored):
// each service folds its svc.* / pet.svc.* names into the process registry
// as it shuts down, so the member carries them for obscheck.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "harness/options.hpp"
#include "harness/report.hpp"
#include "harness/table.hpp"
#include "rng/prng.hpp"
#include "service/messages.hpp"
#include "service/registry.hpp"
#include "service/service.hpp"
#include "service/shard.hpp"
#include "stats/accuracy.hpp"

namespace {

using namespace pet;

[[nodiscard]] double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

[[nodiscard]] svc::Frame estimate_request(std::uint64_t population,
                                          std::uint64_t seed,
                                          std::uint64_t deadline_slots) {
  svc::EstimateRequest request;
  request.population_id = population;
  request.seed = seed;
  request.deadline_slots = deadline_slots;
  return svc::make_request(svc::CommandId::kEstimate, svc::encode(request));
}

/// Quantile over the slot-unit latency histogram: upper bound of the bucket
/// holding quantile q (">B" for the overflow bucket, "-" when empty).
[[nodiscard]] std::string slot_quantile(
    const std::array<std::uint64_t, svc::PopulationStats::kLatencyBuckets>&
        counts,
    double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return "-";
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= target) {
      if (i < svc::kSvcLatencySlotBounds.size()) {
        return bench::TablePrinter::num(svc::kSvcLatencySlotBounds[i], 0);
      }
      return ">" +
             bench::TablePrinter::num(svc::kSvcLatencySlotBounds.back(), 0);
    }
  }
  return "-";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pet;
  auto options = bench::BenchOptions::parse(
      argc, argv,
      "pet::svc service engine under load: throughput/latency at >= 1k "
      "populations, overload shedding, deterministic deadline degradation.");
  bench::BenchSession session(options, "service_bench");

  // --quick (runs <= 30) shrinks the load phase, not the population count:
  // the 1k-population floor is the point of the bench.
  const bool quick = options.runs <= 30;
  const std::uint64_t populations = 1024;
  const std::uint64_t tags_per_population = quick ? 1000 : 2000;
  const std::uint64_t requests = quick ? 1024 : 8192;
  const unsigned clients =
      std::max(2u, std::min(8u, runtime::ThreadPool::hardware_threads()));

  svc::ServiceConfig config;
  config.max_inflight = 256;
  config.worker_threads = options.threads;
  svc::EstimationService service(config);

  // --- Registration: the 1k-population arena --------------------------------
  const auto register_start = std::chrono::steady_clock::now();
  for (std::uint64_t id = 0; id < populations; ++id) {
    svc::RegisterRequest request;
    request.population_id = id;
    request.tag_count = tags_per_population;
    request.population_seed = rng::derive_seed(options.seed, id);
    const svc::Frame response = service.handle(svc::make_request(
        svc::CommandId::kRegister, svc::encode(request)));
    if (response.status != 0) {
      std::fprintf(stderr, "service_bench: register %llu failed\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }
  const double register_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    register_start)
          .count();

  // --- Load: parallel clients, strict request-response ----------------------
  std::vector<std::vector<double>> latencies(clients);
  const auto load_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        std::vector<double>& mine = latencies[c];
        mine.reserve(requests / clients + 1);
        for (std::uint64_t i = c; i < requests; i += clients) {
          const svc::Frame request = estimate_request(
              i % populations, rng::derive_seed(options.seed, 10000 + i),
              /*deadline_slots=*/0);
          const auto start = std::chrono::steady_clock::now();
          const svc::Frame response = service.submit(request).get();
          const auto elapsed = std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start);
          if (response.status == 0) mine.push_back(elapsed.count());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const double load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    load_start)
          .count();

  std::vector<double> all_latencies;
  for (const std::vector<double>& part : latencies) {
    all_latencies.insert(all_latencies.end(), part.begin(), part.end());
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  const std::uint64_t served = all_latencies.size();

  // Timing table: stdout only.  Binding it would make the artifact diff
  // machine-dependent.
  bench::TablePrinter load_table(
      "service load (timing: NOT golden)",
      {"populations", "clients", "requests", "req/s", "p50 us", "p99 us",
       "register s"},
      options.csv);
  load_table.add_row({bench::TablePrinter::num(populations),
                      bench::TablePrinter::num(std::uint64_t{clients}),
                      bench::TablePrinter::num(served),
                      bench::TablePrinter::num(
                          static_cast<double>(served) / load_seconds, 1),
                      bench::TablePrinter::num(percentile(all_latencies, 0.50),
                                               1),
                      bench::TablePrinter::num(percentile(all_latencies, 0.99),
                                               1),
                      bench::TablePrinter::num(register_seconds, 2)});
  load_table.print();

  // --- Service observability fold (deterministic) ---------------------------
  // Snapshot the registry's per-population fold now: the load phase is a
  // fixed seeded request script, so these totals are byte-identical at any
  // --threads.  The overload burst below is timing-dependent and must not
  // leak into this table — hence the snapshot happens first.
  {
    const svc::PopulationStatsSnapshot fold = service.registry().fold_stats();
    bench::TablePrinter obs_table(
        "service observability fold (deterministic; post-load snapshot)",
        {"requests", "ok", "degraded", "query slots", "rounds",
         "p50 slots", "p99 slots"},
        options.csv);
    obs_table.bind(&session.report());
    obs_table.add_row({bench::TablePrinter::num(fold.requests),
                       bench::TablePrinter::num(fold.ok),
                       bench::TablePrinter::num(fold.degraded),
                       bench::TablePrinter::num(fold.query_slots),
                       bench::TablePrinter::num(fold.rounds),
                       slot_quantile(fold.latency_slots, 0.50),
                       slot_quantile(fold.latency_slots, 0.99)});
    obs_table.print();
  }

  // --- Overload: burst far past the admission cap ---------------------------
  const std::uint64_t burst = config.max_inflight * 4;
  std::vector<std::future<svc::Frame>> pending;
  pending.reserve(burst);
  for (std::uint64_t i = 0; i < burst; ++i) {
    pending.push_back(service.submit(estimate_request(
        i % populations, rng::derive_seed(options.seed, 20000 + i), 0)));
  }
  std::uint64_t burst_ok = 0, burst_shed = 0;
  for (std::future<svc::Frame>& future : pending) {
    const svc::Frame response = future.get();
    if (response.status == 0) {
      ++burst_ok;
    } else if (static_cast<svc::StatusCode>(response.status) ==
               svc::StatusCode::kResourceExhausted) {
      ++burst_shed;
    }
  }
  // Timing-dependent served/shed split: stdout only, like the load table.
  bench::TablePrinter overload_table(
      "overload burst (timing-dependent split; every request answered)",
      {"burst", "served", "shed"}, options.csv);
  overload_table.add_row({bench::TablePrinter::num(burst),
                          bench::TablePrinter::num(burst_ok),
                          bench::TablePrinter::num(burst_shed)});
  overload_table.print();

  // --- Degradation ladder (deterministic) -----------------------------------
  bench::TablePrinter degrade_table(
      "deadline degradation ladder (deterministic; robust, eps=0.1, "
      "delta=0.05)",
      {"deadline slots", "status", "rounds", "planned", "degraded",
       "truncated", "nhat/n", "rel half-width"},
      options.csv);
  degrade_table.bind(&session.report());
  const double true_n = static_cast<double>(tags_per_population);
  for (const std::uint64_t deadline :
       {std::uint64_t{0}, std::uint64_t{4000}, std::uint64_t{2000},
        std::uint64_t{1000}, std::uint64_t{500}, std::uint64_t{250},
        std::uint64_t{120}, std::uint64_t{60}, std::uint64_t{20},
        std::uint64_t{5}}) {
    const svc::Frame response = service.handle(estimate_request(
        0, rng::derive_seed(options.seed, 30000), deadline));
    const auto status = static_cast<svc::StatusCode>(response.status);
    std::string rounds = "-", planned = "-", degraded = "-", truncated = "-",
                accuracy = "-", width = "-";
    if (status == svc::StatusCode::kOk) {
      const auto reply = svc::parse_estimate_reply(response.payload);
      if (!reply) return 1;
      rounds = bench::TablePrinter::num(reply->rounds);
      planned = bench::TablePrinter::num(reply->planned_rounds);
      degraded = reply->degraded != 0 ? "yes" : "no";
      truncated = reply->truncated != 0 ? "yes" : "no";
      accuracy = bench::TablePrinter::num(reply->n_hat / true_n, 4);
      width = bench::TablePrinter::num(
          reply->n_hat > 0.0
              ? (reply->ci_hi - reply->ci_lo) / (2.0 * reply->n_hat)
              : 0.0,
          4);
    }
    degrade_table.add_row({deadline == 0 ? "unlimited"
                                         : bench::TablePrinter::num(deadline),
                           std::string(svc::to_string(status)), rounds,
                           planned, degraded, truncated, accuracy, width});
  }
  degrade_table.print();

  // --- Scale: 10k populations (deterministic fold) --------------------------
  // A fresh service carrying 10240 registered populations — 10x the load
  // arena — with one estimate per population driven through the sharded
  // submit path.  The fold totals are a pure function of the request script
  // (golden); registration and serving rates describe this machine (stdout).
  {
    const std::uint64_t scale_populations = 10240;
    const std::uint64_t scale_tags = quick ? 200 : 1000;
    svc::ServiceConfig scale_config;
    scale_config.max_inflight = 256;
    scale_config.worker_threads = options.threads;
    svc::EstimationService scale_service(scale_config);

    const auto scale_register_start = std::chrono::steady_clock::now();
    for (std::uint64_t id = 0; id < scale_populations; ++id) {
      svc::RegisterRequest request;
      request.population_id = id;
      request.tag_count = scale_tags;
      request.population_seed = rng::derive_seed(options.seed, 40000 + id);
      const svc::Frame response = scale_service.handle(svc::make_request(
          svc::CommandId::kRegister, svc::encode(request)));
      if (response.status != 0) {
        std::fprintf(stderr, "service_bench: scale register %llu failed\n",
                     static_cast<unsigned long long>(id));
        return 1;
      }
    }
    const double scale_register_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      scale_register_start)
            .count();

    const auto scale_load_start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> workers;
      workers.reserve(clients);
      for (unsigned c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          for (std::uint64_t id = c; id < scale_populations; id += clients) {
            (void)scale_service
                .submit(estimate_request(
                    id, rng::derive_seed(options.seed, 50000 + id), 0))
                .get();
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
    const double scale_load_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      scale_load_start)
            .count();

    const svc::PopulationStatsSnapshot fold =
        scale_service.registry().fold_stats();
    bench::TablePrinter scale_table(
        "scale: 10k populations (deterministic fold)",
        {"populations", "requests", "ok", "query slots", "rounds",
         "p99 slots"},
        options.csv);
    scale_table.bind(&session.report());
    scale_table.add_row({bench::TablePrinter::num(scale_populations),
                         bench::TablePrinter::num(fold.requests),
                         bench::TablePrinter::num(fold.ok),
                         bench::TablePrinter::num(fold.query_slots),
                         bench::TablePrinter::num(fold.rounds),
                         slot_quantile(fold.latency_slots, 0.99)});
    scale_table.print();
    if (!options.quiet) {
      std::fprintf(stderr,
                   "scale: registered 10240 pops in %.2fs, served %llu "
                   "estimates at %.0f req/s (%u shards)\n",
                   scale_register_seconds,
                   static_cast<unsigned long long>(fold.requests),
                   static_cast<double>(fold.requests) / scale_load_seconds,
                   scale_service.shard_count());
    }
  }

  // --- Hot/cold isolation across shards -------------------------------------
  // One population is hammered with fire-and-forget load while a fixed cold
  // request script runs against populations on the other shards.  Per-shard
  // admission means the hammer can only exhaust its own shard's budget, so
  // the cold script's fold (golden) and its wall p99 (stdout; the tentpole's
  // "within 2x" claim) stay insulated.
  {
    const unsigned iso_shards = 4;
    svc::ServiceConfig iso_config;
    iso_config.shards = iso_shards;
    iso_config.worker_threads = 4;
    iso_config.max_inflight = 64;
    svc::EstimationService iso_service(iso_config);

    const std::uint64_t hot = 1;  // large population: expensive estimates
    const unsigned hot_shard = svc::shard_of(hot, iso_shards);
    std::vector<std::uint64_t> cold_ids;
    for (std::uint64_t id = 2; cold_ids.size() < 12; ++id) {
      if (svc::shard_of(id, iso_shards) != hot_shard) cold_ids.push_back(id);
    }
    const auto register_one = [&](std::uint64_t id, std::uint64_t tags) {
      svc::RegisterRequest request;
      request.population_id = id;
      request.tag_count = tags;
      request.population_seed = rng::derive_seed(options.seed, 60000 + id);
      return iso_service
          .handle(svc::make_request(svc::CommandId::kRegister,
                                    svc::encode(request)))
          .status == 0;
    };
    if (!register_one(hot, quick ? 4000 : 8000)) return 1;
    for (const std::uint64_t id : cold_ids) {
      if (!register_one(id, 300)) return 1;
    }

    // One fixed cold script, run twice: alone (baseline), then against the
    // hammer (contended).  Two serial clients keep the cold shards far
    // under their admission budget, so every cold request is served.
    const std::uint64_t cold_requests = quick ? 96 : 384;
    const auto run_cold_script = [&](std::vector<double>& wall_us) {
      std::vector<std::thread> workers;
      std::vector<std::vector<double>> parts(2);
      for (unsigned c = 0; c < 2; ++c) {
        workers.emplace_back([&, c] {
          for (std::uint64_t i = c; i < cold_requests; i += 2) {
            const svc::Frame request = estimate_request(
                cold_ids[i % cold_ids.size()],
                rng::derive_seed(options.seed, 70000 + i), 0);
            const auto start = std::chrono::steady_clock::now();
            (void)iso_service.submit(request).get();
            parts[c].push_back(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
      for (const std::vector<double>& part : parts) {
        wall_us.insert(wall_us.end(), part.begin(), part.end());
      }
      std::sort(wall_us.begin(), wall_us.end());
    };

    std::vector<double> baseline_us;
    run_cold_script(baseline_us);

    std::atomic<bool> hammer_stop{false};
    std::vector<std::future<svc::Frame>> hammer_pending;
    std::thread hammer([&] {
      // Fire-and-forget: keep the hot shard saturated (its admissions shed
      // with typed frames once the per-shard budget fills).  Futures are
      // drained after the cold script so shutdown never abandons work.
      std::uint64_t i = 0;
      while (!hammer_stop.load(std::memory_order_acquire) && i < 100000) {
        hammer_pending.push_back(iso_service.submit(estimate_request(
            hot, rng::derive_seed(options.seed, 80000 + i), 0)));
        ++i;
        if (hammer_pending.size() % 64 == 0) std::this_thread::yield();
      }
    });

    std::vector<double> contended_us;
    run_cold_script(contended_us);
    hammer_stop.store(true, std::memory_order_release);
    hammer.join();
    std::uint64_t hammer_served = 0, hammer_shed = 0;
    for (std::future<svc::Frame>& future : hammer_pending) {
      if (future.get().status == 0) {
        ++hammer_served;
      } else {
        ++hammer_shed;
      }
    }

    // Golden: the cold populations' fold only — a pure function of the cold
    // script (the hammer touches a disjoint population on a disjoint shard).
    svc::PopulationStatsSnapshot cold_fold;
    for (const std::uint64_t id : cold_ids) {
      if (const auto entry = iso_service.registry().find(id)) {
        cold_fold.accumulate(entry->stats);
      }
    }
    bench::TablePrinter iso_table(
        "hot/cold isolation: cold fold at shards=4 (deterministic)",
        {"cold pops", "requests", "ok", "shed", "query slots", "rounds"},
        options.csv);
    iso_table.bind(&session.report());
    iso_table.add_row(
        {bench::TablePrinter::num(std::uint64_t{cold_ids.size()}),
         bench::TablePrinter::num(cold_fold.requests),
         bench::TablePrinter::num(cold_fold.ok),
         bench::TablePrinter::num(cold_fold.shed),
         bench::TablePrinter::num(cold_fold.query_slots),
         bench::TablePrinter::num(cold_fold.rounds)});
    iso_table.print();

    // Machine profile: the isolation ratio itself (acceptance: < 2x).
    const double baseline_p99 = percentile(baseline_us, 0.99);
    const double contended_p99 = percentile(contended_us, 0.99);
    bench::TablePrinter iso_timing(
        "hot/cold isolation timing (NOT golden)",
        {"cold p99 us (alone)", "cold p99 us (hammered)", "ratio",
         "hammer served", "hammer shed"},
        options.csv);
    iso_timing.add_row(
        {bench::TablePrinter::num(baseline_p99, 1),
         bench::TablePrinter::num(contended_p99, 1),
         bench::TablePrinter::num(
             baseline_p99 > 0.0 ? contended_p99 / baseline_p99 : 0.0, 2),
         bench::TablePrinter::num(hammer_served),
         bench::TablePrinter::num(hammer_shed)});
    iso_timing.print();
  }

  // --- Result cache: repeated-seed script ------------------------------------
  // Serial handle() keeps the hit pattern deterministic: pass 0 misses per
  // (population, seed) key, passes 1..3 hit.  Counters and the fold are
  // golden (the fold must be cache-invariant: ok counts every pass); the
  // hit-vs-miss wall p50 speedup is the measured saving (stdout).
  {
    svc::ServiceConfig cache_config;
    cache_config.worker_threads = 1;
    cache_config.cache_entries = 512;
    svc::EstimationService cache_service(cache_config);
    const std::uint64_t cache_pops = 3;
    const std::uint64_t cache_seeds = 32;
    const std::uint64_t passes = 4;
    for (std::uint64_t id = 0; id < cache_pops; ++id) {
      svc::RegisterRequest request;
      request.population_id = id;
      request.tag_count = 600;
      request.population_seed = rng::derive_seed(options.seed, 90000 + id);
      if (cache_service
              .handle(svc::make_request(svc::CommandId::kRegister,
                                        svc::encode(request)))
              .status != 0) {
        return 1;
      }
    }
    std::vector<double> miss_us, hit_us;
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
      for (std::uint64_t id = 0; id < cache_pops; ++id) {
        for (std::uint64_t s = 0; s < cache_seeds; ++s) {
          const svc::Frame request = estimate_request(
              id, rng::derive_seed(options.seed, 95000 + s), 0);
          const auto start = std::chrono::steady_clock::now();
          const svc::Frame response = cache_service.handle(request);
          const double us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
          if (response.status != 0) return 1;
          (pass == 0 ? miss_us : hit_us).push_back(us);
        }
      }
    }
    const svc::ResultCacheStats cache_stats = cache_service.cache_stats();
    const svc::PopulationStatsSnapshot fold =
        cache_service.registry().fold_stats();
    bench::TablePrinter cache_table(
        "result cache: repeated-seed script (deterministic)",
        {"hits", "misses", "evictions", "entries", "fold ok", "fold rounds"},
        options.csv);
    cache_table.bind(&session.report());
    cache_table.add_row({bench::TablePrinter::num(cache_stats.hits),
                         bench::TablePrinter::num(cache_stats.misses),
                         bench::TablePrinter::num(cache_stats.evictions),
                         bench::TablePrinter::num(cache_stats.entries),
                         bench::TablePrinter::num(fold.ok),
                         bench::TablePrinter::num(fold.rounds)});
    cache_table.print();

    std::sort(miss_us.begin(), miss_us.end());
    std::sort(hit_us.begin(), hit_us.end());
    const double miss_p50 = percentile(miss_us, 0.50);
    const double hit_p50 = percentile(hit_us, 0.50);
    bench::TablePrinter cache_timing(
        "result cache timing (NOT golden)",
        {"miss p50 us", "hit p50 us", "speedup", "cache bytes"}, options.csv);
    cache_timing.add_row(
        {bench::TablePrinter::num(miss_p50, 2),
         bench::TablePrinter::num(hit_p50, 2),
         bench::TablePrinter::num(hit_p50 > 0.0 ? miss_p50 / hit_p50 : 0.0,
                                  1),
         bench::TablePrinter::num(cache_stats.bytes)});
    cache_timing.print();
  }
  return 0;
}

// Tests for pet::obs — metrics registry semantics, the determinism
// contract (byte-identical deterministic_json for any thread count),
// concurrent shard writes (ThreadSanitizer target), consistency between
// registry counters and the per-result ledgers they mirror, span/event
// tracing, and the BENCH artifact "metrics" member round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "channel/device_channel.hpp"
#include "channel/sorted_pet_channel.hpp"
#include "core/estimator.hpp"
#include "core/robust_estimator.hpp"
#include "obs/export.hpp"
#include "obs/jsonlite.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "rng/prng.hpp"
#include "runtime/json.hpp"
#include "runtime/trial_runner.hpp"
#include "stats/accuracy.hpp"
#include "tags/population.hpp"
#include "verify/benchjson.hpp"

namespace pet {
namespace {

/// Restores the prior level and clears the registry on scope exit, so the
/// global obs state never leaks between tests.
class ObsGuard {
 public:
  explicit ObsGuard(obs::Level level) : saved_(obs::level()) {
    obs::set_level(level);
    obs::MetricsRegistry::instance().reset();
  }
  ~ObsGuard() {
    obs::MetricsRegistry::instance().reset();
    obs::set_trace_writer(nullptr);
    obs::set_level(saved_);
  }

 private:
  obs::Level saved_;
};

TEST(ObsLevel, ParsesAndRoundTrips) {
  EXPECT_EQ(obs::parse_level("off"), obs::Level::kOff);
  EXPECT_EQ(obs::parse_level("counters"), obs::Level::kCounters);
  EXPECT_EQ(obs::parse_level("full"), obs::Level::kFull);
  EXPECT_EQ(obs::to_string(obs::Level::kCounters), "counters");
  EXPECT_THROW((void)obs::parse_level("verbose"), PreconditionError);
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::MetricsRegistry::instance();
  const std::size_t before = registry.metric_count();
  const obs::Counter a = registry.counter("test.idem.counter");
  const obs::Counter b = registry.counter("test.idem.counter");
  EXPECT_EQ(registry.metric_count(), before + 1);
  a.add(3);
  b.add(4);
  EXPECT_EQ(registry.snapshot().counter("test.idem.counter"), 7u);
  // Same name, different kind: a registration bug, reported loudly.
  EXPECT_THROW((void)registry.gauge("test.idem.counter"),
               PreconditionError);
}

TEST(MetricsRegistry, HistogramBucketsByUpperBound) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::MetricsRegistry::instance();
  const obs::Histogram h =
      registry.histogram("test.hist", {1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0 (<= 1)
  h.observe(1.0);  // bucket 0
  h.observe(3.0);  // bucket 2 (<= 4)
  h.observe(9.0);  // overflow bucket
  const obs::Snapshot snapshot = registry.snapshot();
  const auto* value = snapshot.histogram("test.hist");
  ASSERT_NE(value, nullptr);
  ASSERT_EQ(value->counts.size(), 4u);
  EXPECT_EQ(value->counts[0], 2u);
  EXPECT_EQ(value->counts[1], 0u);
  EXPECT_EQ(value->counts[2], 1u);
  EXPECT_EQ(value->counts[3], 1u);
  EXPECT_EQ(value->total(), 4u);
}

TEST(MetricsRegistry, OffLevelRecordsNothing) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::MetricsRegistry::instance();
  const obs::Counter c = registry.counter("test.off.counter");
  obs::set_level(obs::Level::kOff);
  // Instrumentation sites guard on counters_enabled(); replicate that
  // contract here — the level is the only gate the hot path checks.
  if (obs::counters_enabled()) c.add();
  obs::set_level(obs::Level::kCounters);
  EXPECT_EQ(registry.snapshot().counter("test.off.counter"), 0u);
}

TEST(MetricsRegistry, ConcurrentShardWritesMergeExactly) {
  // The ThreadSanitizer target for the registry: many threads hammering
  // the same counters through thread-local shards, snapshot folding
  // concurrently.  The final merged total must be exact.
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::MetricsRegistry::instance();
  const obs::Counter counter = registry.counter("test.concurrent.counter");
  const obs::Histogram hist =
      registry.histogram("test.concurrent.hist", {10.0, 100.0});

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.observe(static_cast<double>((t * kPerThread + i) % 200));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent snapshots must be safe (values may be mid-flight).
  (void)registry.snapshot();
  for (auto& thread : threads) thread.join();

  const obs::Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("test.concurrent.counter"),
            kThreads * kPerThread);
  const auto* h = snapshot.histogram("test.concurrent.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total(), kThreads * kPerThread);
}

/// One instrumented estimation trial (the same work a bench sweep runs).
core::EstimateResult pet_trial(const std::vector<TagId>& ids,
                               const core::PetEstimator& estimator,
                               std::uint64_t seed, std::uint64_t run) {
  chan::SortedPetChannelConfig config;
  config.manufacturing_seed = rng::derive_seed(seed, 2 * run);
  chan::SortedPetChannel channel(ids, config);
  return estimator.estimate_with_rounds(channel, 64,
                                        rng::derive_seed(seed, 2 * run + 1));
}

TEST(MetricsDeterminism, DeterministicJsonIsThreadCountInvariant) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  const auto pop = tags::TagPopulation::generate(300, 0xfeedULL);
  const std::vector<TagId> ids(pop.ids().begin(), pop.ids().end());
  const core::PetEstimator estimator(core::PetConfig{},
                                     stats::AccuracyRequirement{0.1, 0.1});

  std::vector<std::string> renders;
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::MetricsRegistry::instance().reset();
    runtime::TrialRunner runner(threads);
    double sum = 0.0;
    runner.run<core::EstimateResult>(
        12,
        [&](std::uint64_t run) { return pet_trial(ids, estimator, 42, run); },
        [&](std::uint64_t, core::EstimateResult&& result) {
          sum += result.n_hat;
        });
    EXPECT_GT(sum, 0.0);
    renders.push_back(
        obs::deterministic_json(obs::MetricsRegistry::instance().snapshot()));
  }
  ASSERT_EQ(renders.size(), 3u);
  // Byte-identical, not merely numerically equal: the acceptance criterion.
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_EQ(renders[0], renders[2]);
  EXPECT_NE(renders[0].find("chan.ledger.idle_slots"), std::string::npos);
}

// chan.ledger.* mirror the ledger of the estimate that published them.
void expect_ledger_mirror(const obs::Snapshot& snapshot,
                          const sim::SlotLedger& ledger) {
  EXPECT_EQ(snapshot.counter("chan.ledger.idle_slots"), ledger.idle_slots);
  EXPECT_EQ(snapshot.counter("chan.ledger.singleton_slots"),
            ledger.singleton_slots);
  EXPECT_EQ(snapshot.counter("chan.ledger.collision_slots"),
            ledger.collision_slots);
  EXPECT_EQ(snapshot.counter("chan.ledger.reader_bits"), ledger.reader_bits);
  EXPECT_EQ(snapshot.counter("chan.ledger.tag_bits"), ledger.tag_bits);
  EXPECT_EQ(snapshot.counter("chan.ledger.retry_slots"), ledger.retry_slots);
}

// SortedPetChannel publishes its mirror in batches, at round boundaries and
// in flush_obs(), and counts its probes and rounds under chan.sorted.*.
// Flushes the channel, checks its mirror and returns the snapshot.
obs::Snapshot expect_sorted_mirror(chan::SortedPetChannel& channel,
                                   const core::EstimateResult& result) {
  channel.flush_obs();
  obs::Snapshot snapshot = obs::MetricsRegistry::instance().snapshot();
  expect_ledger_mirror(snapshot, result.ledger);
  EXPECT_EQ(snapshot.counter("chan.sorted.probe_slots"),
            result.ledger.total_slots());
  EXPECT_EQ(snapshot.counter("chan.sorted.busy_slots"),
            result.ledger.singleton_slots + result.ledger.collision_slots);
  EXPECT_EQ(snapshot.counter("chan.sorted.rounds"), result.rounds);
  return snapshot;
}

TEST(MetricsConsistency, LedgerMirrorsMatchTheResultLedger) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  const auto pop = tags::TagPopulation::generate(500, 3);
  const core::PetEstimator estimator(core::PetConfig{},
                                     stats::AccuracyRequirement{0.1, 0.1});
  chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet, {});
  const core::EstimateResult result =
      estimator.estimate_with_rounds(channel, 128, 7);

  const obs::Snapshot snapshot = obs::MetricsRegistry::instance().snapshot();
  expect_ledger_mirror(snapshot, result.ledger);
  // The sim.slot.* view counts the same slots from the Medium's side.
  EXPECT_EQ(snapshot.counter("sim.slot.idle"), result.ledger.idle_slots);
  EXPECT_EQ(snapshot.counter("sim.slot.singleton") +
                snapshot.counter("sim.slot.collision"),
            result.ledger.singleton_slots + result.ledger.collision_slots);
  const auto* responders = snapshot.histogram("sim.slot.responders");
  ASSERT_NE(responders, nullptr);
  EXPECT_EQ(responders->total(), result.ledger.total_slots());

  obs::MetricsRegistry::instance().reset();
  chan::SortedPetChannel sorted(pop.ids());
  const core::EstimateResult sorted_result =
      estimator.estimate_with_rounds(sorted, 128, 7);
  (void)expect_sorted_mirror(sorted, sorted_result);
}

TEST(MetricsConsistency, RobustCountersMatchTheResultFields) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  const auto pop = tags::TagPopulation::generate(400, 11);
  core::RobustPetConfig config;
  chan::DeviceChannelConfig device;
  device.impairments.reply_loss_prob = 0.05;
  device.impairments.seed = 99;
  chan::DeviceChannel channel(pop.ids(), chan::DeviceKind::kPet, device);
  const core::RobustPetEstimator estimator(
      config, stats::AccuracyRequirement{0.1, 0.1});
  const auto expect_robust_counters =
      [](const obs::Snapshot& snapshot,
         const core::RobustEstimateResult& result) {
        EXPECT_EQ(snapshot.counter("core.robust.estimates"), 1u);
        EXPECT_EQ(snapshot.counter("core.robust.reread_slots"),
                  result.reread_slots);
        EXPECT_EQ(snapshot.counter("core.robust.overturned_probes"),
                  result.overturned_probes);
        EXPECT_EQ(snapshot.counter("core.robust.health.healthy") +
                      snapshot.counter("core.robust.health.degraded") +
                      snapshot.counter("core.robust.health.at_risk"),
                  1u);
        EXPECT_EQ(snapshot.counter("chan.ledger.retry_slots"),
                  result.reread_slots);
      };
  const core::RobustEstimateResult result = estimator.estimate(channel, 5);
  expect_robust_counters(obs::MetricsRegistry::instance().snapshot(), result);

  // The voting adapter over the sorted channel, whose re-reads reuse the
  // count of the probe they repeat.
  obs::MetricsRegistry::instance().reset();
  chan::SortedPetChannel sorted(pop.ids());
  const core::RobustEstimateResult sorted_result =
      estimator.estimate(sorted, 5);
  EXPECT_GT(sorted_result.reread_slots, 0u);
  EXPECT_EQ(sorted_result.base.ledger.retry_slots, sorted_result.reread_slots);
  expect_robust_counters(expect_sorted_mirror(sorted, sorted_result.base),
                         sorted_result);
}

TEST(Tracing, SpansAndEventsEmitSchemaStableJsonl) {
  ObsGuard guard(obs::Level::kFull);
  if (!obs::full_enabled()) GTEST_SKIP() << "obs compiled out";
  std::ostringstream out;
  obs::TraceWriter writer(out);
  obs::set_trace_writer(&writer);
  obs::set_trace_trial(7);

  obs::trace_event("unit.event",
                   {{"text", obs::json_token("quote\"and\nnewline")},
                    {"value", "42"}});
  {
    obs::ScopedSpan span("unit.span");
    obs::advance_trace_slot();
    obs::advance_trace_slot();
    span.add("rounds", "2");
  }
  obs::set_trace_writer(nullptr);

  const std::string text = out.str();
  EXPECT_NE(text.find("{\"type\":\"event\",\"name\":\"unit.event\","
                      "\"trial\":7,\"slot\":0,"
                      "\"text\":\"quote\\\"and\\nnewline\",\"value\":42}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{\"type\":\"span\",\"name\":\"unit.span\","
                      "\"trial\":7,\"slot_begin\":0,\"slot_end\":2,"
                      "\"rounds\":2}"),
            std::string::npos)
      << text;
  // Every record is one complete line.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Tracing, NothingIsWrittenBelowFullLevel) {
  ObsGuard guard(obs::Level::kCounters);
  std::ostringstream out;
  obs::TraceWriter writer(out);
  obs::set_trace_writer(&writer);
  obs::trace_event("unit.silent", {});
  { obs::ScopedSpan span("unit.silent.span"); }
  obs::set_trace_writer(nullptr);
  EXPECT_TRUE(out.str().empty());
}

TEST(MetricsExport, DocumentParsesAndSeparatesDomains) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test.export.det").add(5);
  registry.counter("test.export.prof", obs::Domain::kProfile).add(9);
  registry.gauge("test.export.gauge").set(1.25);

  obs::PhaseProfiler profiler;
  {
    obs::PhaseProfiler::Scope scope(profiler, "unit-phase");
    scope.add_slots(1000);
  }
  obs::PoolSample pool;
  pool.threads = 2;
  pool.submitted = 10;
  pool.worker_tasks = {6, 4};

  const std::string document =
      obs::metrics_json(registry.snapshot(), profiler.phases(), pool);
  const obs::JsonValue root = obs::parse_json(document);
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find("schema")->string, "pet.obs.v1");
  EXPECT_EQ(root.find("level")->string, "counters");
  // Deterministic sections carry only deterministic-domain metrics.
  const obs::JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("test.export.det"), nullptr);
  EXPECT_EQ(counters->find("test.export.det")->number, 5.0);
  EXPECT_EQ(counters->find("test.export.prof"), nullptr);
  EXPECT_EQ(root.find("gauges")->find("test.export.gauge")->number, 1.25);
  // The profile section owns the rest.
  const obs::JsonValue* profile = root.find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_NE(profile->find("counters"), nullptr);
  EXPECT_EQ(profile->find("counters")->find("test.export.prof")->number, 9.0);
  const obs::JsonValue* phases = profile->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  ASSERT_EQ(phases->array.size(), 1u);
  EXPECT_EQ(phases->array[0].find("name")->string, "unit-phase");
  EXPECT_EQ(phases->array[0].find("slots")->number, 1000.0);
  EXPECT_EQ(profile->find("pool")->find("threads")->number, 2.0);
}

TEST(MetricsExport, ExtraMembersLandAtTopLevel) {
  // The kMetrics wire command rides its "service" member in through this
  // hook; the fragment must append verbatim after "profile".
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test.extra.det").add(1);

  const std::string document =
      obs::metrics_json(registry.snapshot(), {}, std::nullopt,
                        "\"service\":{\"totals\":{\"requests\":3}}");
  const obs::JsonValue root = obs::parse_json(document);
  ASSERT_TRUE(root.is_object());
  const obs::JsonValue* service = root.find("service");
  ASSERT_NE(service, nullptr);
  const obs::JsonValue* totals = service->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("requests")->number, 3.0);
  // Default (no extra member) keeps the historical document shape.
  EXPECT_EQ(obs::parse_json(obs::metrics_json(registry.snapshot()))
                .find("service"),
            nullptr);
}

TEST(JsonLite, NestingIsCappedAt64) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(obs::parse_json(nested(64)).is_array());
  EXPECT_THROW((void)obs::parse_json(nested(65)), std::runtime_error);

  // Hostile depths throw instead of overflowing the recursive descent.
  EXPECT_THROW((void)obs::parse_json(std::string(100000, '[')),
               std::runtime_error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)obs::parse_json(objects), std::runtime_error);
}

TEST(JsonLite, EscapesAboveAsciiAreRejectedNotTruncated) {
  EXPECT_EQ(obs::parse_json("\"\\u0041\\u001f\\u007f\"").string,
            "A\x1f\x7f");
  // A one-byte decode would turn these into 0x00 and 0xE9.
  EXPECT_THROW((void)obs::parse_json("\"\\u0100\""), std::runtime_error);
  EXPECT_THROW((void)obs::parse_json("\"\\u00e9\""), std::runtime_error);
}

TEST(Prometheus, TextExpositionRendersCountersGaugesHistograms) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test.prom.det").add(4);
  registry.counter("pet.svc.pop.requests").add(7);
  registry.counter("test.prom.prof", obs::Domain::kProfile).add(2);
  registry.gauge("test.prom.gauge").set(0.5);
  auto hist = registry.histogram("test.prom.lat", {1.0, 10.0});
  hist.observe(0.5);
  hist.observe(5.0);
  hist.observe(100.0);

  const std::string text = obs::prometheus_text(registry.snapshot());
  // Name mangling: dots to underscores, "pet_" prepended except for names
  // already in the pet. family.
  EXPECT_NE(text.find("# TYPE pet_test_prom_det counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pet_test_prom_det 4"), std::string::npos);
  EXPECT_NE(text.find("pet_svc_pop_requests 7"), std::string::npos);
  EXPECT_EQ(text.find("pet_pet_svc"), std::string::npos)
      << "pet. names must not be double-prefixed";
  // Profile-domain counters export too (Prometheus has no domain split).
  EXPECT_NE(text.find("pet_test_prom_prof 2"), std::string::npos);
  EXPECT_NE(text.find("pet_test_prom_gauge 0.500000"), std::string::npos);
  // Cumulative buckets plus +Inf plus _count, no _sum.
  EXPECT_NE(text.find("pet_test_prom_lat_bucket{le=\"1.000000\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pet_test_prom_lat_bucket{le=\"10.000000\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pet_test_prom_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("pet_test_prom_lat_count 3"), std::string::npos);
  EXPECT_EQ(text.find("pet_test_prom_lat_sum"), std::string::npos);
}

TEST(Prometheus, AtomicFileWriteLandsCompleteAndTmpIsGone) {
  ObsGuard guard(obs::Level::kCounters);
  if (!obs::counters_enabled()) GTEST_SKIP() << "obs compiled out";
  obs::MetricsRegistry::instance().counter("test.prom.file").add(1);
  const std::string text =
      obs::prometheus_text(obs::MetricsRegistry::instance().snapshot());
  const std::string path =
      testing::TempDir() + "obs_prom_atomic_test.prom";
  obs::write_prometheus_file_atomic(path, text);

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), text);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good())
      << "tmp staging file must be renamed away";
  std::remove(path.c_str());
}

TEST(BenchMetrics, ArtifactRoundTripsAndDiffIgnoresMetrics) {
  runtime::BenchReport with_metrics("unit_bench", 4);
  with_metrics.add_row("t", {"col"}, {"1.5"});
  with_metrics.set_metrics_json(
      "{\"schema\": \"pet.obs.v1\", \"counters\": {\"a\": 1}}");
  runtime::BenchReport without_metrics("unit_bench", 4);
  without_metrics.add_row("t", {"col"}, {"1.5"});

  const verify::BenchArtifact parsed =
      verify::parse_bench_json(with_metrics.to_json());
  EXPECT_EQ(parsed.target, "unit_bench");
  const obs::JsonValue* schema = parsed.metrics.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "pet.obs.v1");
  ASSERT_EQ(parsed.rows.size(), 1u);

  // A golden written before observability existed must still gate a
  // metrics-carrying candidate (and vice versa): the member is invisible
  // to the diff.
  const verify::BenchArtifact old_golden =
      verify::parse_bench_json(without_metrics.to_json());
  EXPECT_TRUE(verify::diff_bench(old_golden, parsed).ok());
  EXPECT_TRUE(verify::diff_bench(parsed, old_golden).ok());
  // The deterministic rows stay byte-identical with metrics attached.
  EXPECT_EQ(with_metrics.rows_json(), without_metrics.rows_json());
}

}  // namespace
}  // namespace pet

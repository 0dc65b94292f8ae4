// Microbenches of a traced run: one timed call (or batch) per public layer
// function that the workloads' own calls do not isolate.  Inputs derive
// from the run seed; each call leaves one span.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "channel/sorted_pet_channel.hpp"
#include "common/radix.hpp"
#include "core/robust_estimator.hpp"
#include "rng/hash_family.hpp"
#include "rng/prng.hpp"
#include "service/messages.hpp"
#include "service/registry.hpp"
#include "service/service.hpp"
#include "tags/population.hpp"
#include "workloads.hpp"

namespace pet::perf {

namespace {

constexpr std::uint64_t kMicroStream = 0x6d6963726f;
constexpr std::size_t kTags = 50000;       ///< the sweep's population size
constexpr std::size_t kSmallTags = 2000;   ///< the wire workloads' size
constexpr unsigned kTreeHeight = 32;
constexpr unsigned kFastReps = 64;
constexpr unsigned kSlowReps = 16;
constexpr unsigned kHitReps = 1024;
constexpr unsigned kCodecBatch = 1000;

/// Times `body(rep)` `reps` times, one span each; returns the median in
/// nanoseconds divided by `per`.
template <typename Body>
double timed(SpanLog& spans, const char* name, unsigned reps, double per,
             Body&& body) {
  std::vector<double> ns;
  ns.reserve(reps);
  for (unsigned rep = 0; rep < reps; ++rep) {
    const std::uint64_t start = now_ns();
    body(rep);
    const std::uint64_t end = now_ns();
    spans.add(0, name, rep, start, end);
    ns.push_back(static_cast<double>(end - start) / per);
  }
  return quantile(ns, 0.5);
}

[[nodiscard]] svc::Frame estimate_frame(std::uint64_t population,
                                        std::uint64_t seed) {
  svc::EstimateRequest req;
  req.population_id = population;
  req.seed = seed;
  req.epsilon = 0.10;
  req.delta = 0.05;
  req.robust = 1;
  return svc::make_request(svc::CommandId::kEstimate, svc::encode(req));
}

}  // namespace

void run_microbenches(const RunConfig& config, WorkloadResult& result) {
  SpanLog& spans = *config.spans;
  const std::uint64_t seed = rng::derive_seed(config.seed, kMicroStream);
  const auto population = tags::TagPopulation::generate(kTags, seed);
  const std::vector<TagId> ids(population.ids().begin(), population.ids().end());
  const auto per_tag = static_cast<double>(kTags);

  std::vector<std::uint64_t> codes;
  result.set("rng.hash_ns_per_tag",
             timed(spans, "rng.uniform_code_batch", kFastReps, per_tag,
                   [&](unsigned rep) {
                     rng::uniform_code_batch(rng::HashKind::kMix64,
                                             rng::derive_seed(seed, rep), ids,
                                             kTreeHeight, codes);
                   }),
             kFastReps);

  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> scratch;
  std::vector<double> sort_ns;
  for (unsigned rep = 0; rep < kFastReps; ++rep) {
    keys = codes;  // unsorted input, copied outside the timed call
    const std::uint64_t start = now_ns();
    radix_sort_u64(keys, scratch, kTreeHeight);
    const std::uint64_t end = now_ns();
    spans.add(0, "common.radix_sort_u64", rep, start, end);
    sort_ns.push_back(static_cast<double>(end - start) / per_tag);
    if (!std::is_sorted(keys.begin(), keys.end())) {
      result.fail("radix_sort_u64 left its keys unsorted");
    }
  }
  result.set("common.sort_ns_per_key", quantile(sort_ns, 0.5), kFastReps);

  result.set("tags.generate_us",
             timed(spans, "tags.generate", kSlowReps, 1e3,
                   [&](unsigned rep) {
                     const auto tags = tags::TagPopulation::generate(
                         kTags, rng::derive_seed(seed, rep));
                     if (tags.size() != kTags) result.fail("short population");
                   }),
             kSlowReps);

  svc::PopulationRegistry registry;
  result.set("channel.register_us",
             timed(spans, "channel.register_population", kSlowReps, 1e3,
                   [&](unsigned rep) {
                     if (registry.register_population(
                             rep + 1, kTags, rng::derive_seed(seed, rep)) !=
                         svc::PopulationRegistry::RegisterOutcome::kRegistered) {
                       result.fail("register_population refused");
                     }
                     (void)registry.unregister_population(rep + 1);
                   }),
             kSlowReps);

  const auto small = tags::TagPopulation::generate(kSmallTags, seed);
  const std::vector<TagId> small_ids(small.ids().begin(), small.ids().end());
  chan::SortedPetChannel channel(small_ids);
  const core::RobustPetEstimator robust(core::RobustPetConfig{},
                                        stats::AccuracyRequirement{0.10, 0.05});
  result.set("core.robust_estimate_us",
             timed(spans, "core.robust_estimate", kSlowReps * 2, 1e3,
                   [&](unsigned rep) {
                     channel.reset_ledger();
                     const auto out =
                         robust.estimate(channel, rng::derive_seed(seed, rep));
                     if (!(out.n_hat() > 0.0)) result.fail("robust estimate <= 0");
                   }),
             kSlowReps * 2);

  // In-process service: handle() is the direct path, without petd's socket,
  // connection thread or shard queue.
  svc::ServiceConfig service_config;
  service_config.worker_threads = 1;
  service_config.cache_entries = 1024;
  svc::EstimationService service(service_config);
  svc::RegisterRequest reg;
  reg.population_id = 1;
  reg.tag_count = kSmallTags;
  reg.population_seed = seed;
  if (service.handle(svc::make_request(svc::CommandId::kRegister,
                                       svc::encode(reg)))
          .status != 0) {
    result.fail("in-process register refused");
    return;
  }
  auto check_ok = [&](const svc::Frame& reply) {
    if (reply.status != 0) result.fail("in-process estimate not OK");
  };
  result.set("svc.handle_cold_us",
             timed(spans, "svc.handle_cold", kFastReps, 1e3,
                   [&](unsigned rep) {
                     check_ok(service.handle(estimate_frame(
                         1, rng::derive_seed(seed, kFastReps + rep))));
                   }),
             kFastReps);
  const svc::Frame hit = estimate_frame(1, seed);
  const svc::Frame reply = service.handle(hit);
  check_ok(reply);
  result.set("svc.handle_hit_us",
             timed(spans, "svc.handle_hit", kHitReps, 1e3,
                   [&](unsigned) { check_ok(service.handle(hit)); }),
             kHitReps);

  std::size_t encoded = 0;
  result.set("svc.codec_encode_ns",
             timed(spans, "svc.encode_frame", kSlowReps, kCodecBatch,
                   [&](unsigned) {
                     for (unsigned i = 0; i < kCodecBatch; ++i) {
                       encoded += svc::encode_frame(reply).size();
                     }
                   }),
             kSlowReps * kCodecBatch);
  const std::vector<std::uint8_t> wire = svc::encode_frame(reply);
  if (encoded != wire.size() * kSlowReps * kCodecBatch) {
    result.fail("encode_frame sizes drifted");
  }
  std::vector<std::uint8_t> stream;
  for (unsigned i = 0; i < kCodecBatch; ++i) {
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  result.set("svc.codec_decode_ns",
             timed(spans, "svc.decoder_next", kSlowReps, kCodecBatch,
                   [&](unsigned) {
                     svc::Decoder decoder;
                     decoder.feed(stream);
                     svc::Frame frame;
                     unsigned decoded = 0;
                     while (decoder.next(frame) == svc::DecodeStatus::kFrame) {
                       ++decoded;
                     }
                     if (decoded != kCodecBatch || frame.payload != reply.payload) {
                       result.fail("Decoder::next lost a frame");
                     }
                   }),
             kSlowReps * kCodecBatch);
}

}  // namespace pet::perf

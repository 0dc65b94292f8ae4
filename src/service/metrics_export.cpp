#include "service/metrics_export.hpp"

#include <string_view>
#include <utility>

#include "obs/export.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "runtime/json.hpp"
#include "service/service.hpp"

namespace pet::svc {

namespace {

constexpr int kBoundPrecision = 6;

void append_field(std::string& out, std::string_view key, std::uint64_t value,
                  bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

std::string latency_histogram_object(
    const std::array<std::uint64_t, PopulationStats::kLatencyBuckets>&
        counts) {
  std::string out = "{\"bounds\":[";
  for (std::size_t i = 0; i < obs::kSvcLatencySlotBounds.size(); ++i) {
    if (i != 0) out += ',';
    out += runtime::json_number(obs::kSvcLatencySlotBounds[i],
                                kBoundPrecision);
  }
  out += "],\"counts\":[";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(counts[i]);
  }
  out += "]}";
  return out;
}

/// The per-population counters as `"<prefix><name>":value` members.
void append_population_counters(std::string& out, std::string_view prefix,
                                const PopulationStatsSnapshot& s) {
  const std::pair<std::string_view, std::uint64_t> counters[] = {
      {"requests", s.requests},
      {"ok", s.ok},
      {"degraded", s.degraded},
      {"truncated", s.truncated},
      {"errors", s.errors},
      {"shed", s.shed},
      {"deadline_misses", s.deadline_misses},
      {"retries", s.retries},
      {"backoff_slots", s.backoff_slots},
      {"query_slots", s.query_slots},
      {"rounds", s.rounds},
      {"rounds_planned", s.rounds_planned},
      {"cache_hits", s.cache_hits},
  };
  bool first = true;
  for (const auto& [name, value] : counters) {
    append_field(out, std::string(prefix).append(name), value, first);
  }
}

std::string stats_object(const PopulationStatsSnapshot& s) {
  std::string out = "{";
  append_population_counters(out, "", s);
  out += ",\"latency_slots\":";
  out += latency_histogram_object(s.latency_slots);
  out += "}";
  return out;
}

}  // namespace

std::string render_service_member(const EstimationService& service,
                                  bool include_profile) {
  const PopulationRegistry& registry = service.registry();
  std::string out = "\"service\":{\"populations\":{";
  bool first = true;
  for (const auto& [id, snap] : registry.snapshot_stats()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += std::to_string(id);
    out += "\":";
    out += stats_object(snap);
  }
  out += "},\"totals\":";
  out += stats_object(registry.fold_stats());
  const EstimationService::ConnectionTotals conn =
      service.connection_totals();
  out += ",\"connections\":{";
  bool cfirst = true;
  append_field(out, "opened", conn.opened, cfirst);
  append_field(out, "closed", conn.closed, cfirst);
  append_field(out, "frames_rx", conn.frames_rx, cfirst);
  append_field(out, "frames_tx", conn.frames_tx, cfirst);
  append_field(out, "bytes_rx", conn.bytes_rx, cfirst);
  append_field(out, "bytes_tx", conn.bytes_tx, cfirst);
  append_field(out, "resyncs", conn.resyncs, cfirst);
  out += "},\"cache\":{";
  const ResultCacheStats cache = service.cache_stats();
  bool hfirst = true;
  append_field(out, "hits", cache.hits, hfirst);
  append_field(out, "misses", cache.misses, hfirst);
  append_field(out, "evictions", cache.evictions, hfirst);
  append_field(out, "entries", cache.entries, hfirst);
  append_field(out, "bytes", cache.bytes, hfirst);
  append_field(out, "capacity_entries", service.cache().config().max_entries,
               hfirst);
  append_field(out, "capacity_bytes", service.cache().config().max_bytes,
               hfirst);
  out += "},\"flight\":{";
  bool ffirst = true;
  append_field(out, "capacity", service.flight().capacity(), ffirst);
  append_field(out, "recorded", service.flight().recorded(), ffirst);
  out += "}";
  if (include_profile) {
    // Per-shard breakdown: values depend on the configured shard count and
    // (for inflight/stolen) on live scheduling, so this member is
    // kFull-only — the deterministic document must stay byte-identical at
    // shards 1/2/8 (docs/service.md).
    const ShardSet& shards = service.shards();
    out += ",\"shards\":{";
    bool sfirst = true;
    append_field(out, "count", shards.count(), sfirst);
    append_field(out, "threads_per_shard", shards.threads_per_shard(), sfirst);
    append_field(out, "max_inflight_per_shard",
                 shards.max_inflight_per_shard(), sfirst);
    out += ",\"per_shard\":[";
    bool pfirst = true;
    for (const ShardSet::Snapshot& snap : shards.snapshot()) {
      if (!pfirst) out += ',';
      pfirst = false;
      out += "{";
      bool efirst = true;
      append_field(out, "inflight", snap.inflight, efirst);
      append_field(out, "shed", snap.shed, efirst);
      append_field(out, "submitted", snap.submitted, efirst);
      append_field(out, "stolen", snap.stolen, efirst);
      out += "}";
    }
    out += "]}";
  }
  out += "}";
  return out;
}

std::string render_metrics_document(const EstimationService& service,
                                    bool deterministic_only) {
  const obs::Snapshot snapshot = obs::MetricsRegistry::instance().snapshot();
  const std::string service_member =
      render_service_member(service, /*include_profile=*/!deterministic_only);
  if (!deterministic_only) {
    return obs::metrics_json(snapshot, {}, std::nullopt, service_member);
  }
  std::string out = "{\"schema\":\"pet.obs.v1\",\"level\":\"";
  out += obs::to_string(obs::level());
  out += "\",";
  out += obs::deterministic_json(snapshot);
  out += ',';
  out += service_member;
  out += "}";
  return out;
}

std::string render_population_document(
    std::uint64_t population_id, const PopulationStatsSnapshot& stats) {
  std::string out = "{\"schema\":\"pet.obs.v1\",\"level\":\"";
  out += obs::to_string(obs::level());
  out += "\",\"population\":";
  out += std::to_string(population_id);
  out += ",\"counters\":{";
  append_population_counters(out, "pet.svc.pop.", stats);
  out += "},\"gauges\":{},\"histograms\":{\"pet.svc.pop.latency_slots\":";
  out += latency_histogram_object(stats.latency_slots);
  out += "}}";
  return out;
}

}  // namespace pet::svc

#include "service/metrics_export.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/export.hpp"
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
  for (std::size_t i = 0; i < kSvcLatencySlotBounds.size(); ++i) {
    if (i != 0) out += ',';
    out += runtime::json_number(kSvcLatencySlotBounds[i], kBoundPrecision);
  }
  out += "],\"counts\":[";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(counts[i]);
  }
  out += "]}";
  return out;
}

/// The one list of per-population counter names: the stats objects, the
/// population document and the pet.svc.pop.* snapshot names all read it.
std::array<std::pair<std::string_view, std::uint64_t>, 13> population_counters(
    const PopulationStatsSnapshot& s) {
  return {{
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
  }};
}

/// The per-population counters as `"<prefix><name>":value` members.
void append_population_counters(std::string& out, std::string_view prefix,
                                const PopulationStatsSnapshot& s) {
  bool first = true;
  for (const auto& [name, value] : population_counters(s)) {
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

/// Every svc.* and pet.svc.* name, valued from the service cell behind it.
obs::Snapshot service_cells(const EstimationService& service) {
  constexpr obs::Domain kDet = obs::Domain::kDeterministic;
  constexpr obs::Domain kProfile = obs::Domain::kProfile;
  const PopulationStatsSnapshot pops = service.registry().fold_stats();
  const MonitorReply monitor = service.stats();
  const EstimationService::RequestTotals requests = service.request_totals();
  const EstimationService::ConnectionTotals conn =
      service.connection_totals();
  const ResultCacheStats cache = service.cache_stats();
  // Rejected: typed errors that are neither malformed input nor a shed.
  std::uint64_t rejected = 0;
  for (const std::uint64_t replies : requests.replies) rejected += replies;
  for (const StatusCode status :
       {StatusCode::kOk, StatusCode::kMalformedFrame,
        StatusCode::kResourceExhausted, StatusCode::kShuttingDown}) {
    rejected -= requests.replies_with(status);
  }
  ShardSet::Snapshot shards;  // summed, except depth: the deepest shard
  std::size_t depth = 0;
  for (const ShardSet::Snapshot& shard : service.shards().snapshot()) {
    shards.inflight += shard.inflight;
    shards.shed += shard.shed;
    shards.stolen += shard.stolen;
    depth = std::max(depth, shard.inflight);
  }

  obs::Snapshot out;
  for (const auto& [name, value] : population_counters(pops)) {
    out.counters.push_back({"pet.svc.pop." + std::string(name), kDet, value});
  }
  out.counters.insert(
      out.counters.end(),
      {
          {"svc.req.accepted", kDet, monitor.accepted},
          {"svc.req.completed", kDet, monitor.completed},
          {"svc.req.shed", kDet, monitor.shed},
          {"svc.req.rejected", kDet, rejected},
          {"svc.req.degraded", kDet, pops.degraded},
          {"svc.deadline.misses", kDet, pops.deadline_misses},
          {"svc.retry.attempts", kDet, requests.retry_attempts},
          {"svc.retry.backoff_slots", kDet, requests.retry_backoff_slots},
          {"svc.retry.exhausted", kDet,
           requests.replies_with(StatusCode::kUnavailable)},
          {"svc.frame.malformed", kDet, monitor.malformed_frames},
          {"svc.frame.version_skew", kDet,
           requests.replies_with(StatusCode::kIncompatibleVersion)},
          {"pet.svc.conn.opened", kDet, conn.opened},
          {"pet.svc.conn.closed", kDet, conn.closed},
          {"pet.svc.conn.frames_rx", kDet, conn.frames_rx},
          {"pet.svc.conn.frames_tx", kDet, conn.frames_tx},
          {"pet.svc.conn.bytes_rx", kDet, conn.bytes_rx},
          {"pet.svc.conn.bytes_tx", kDet, conn.bytes_tx},
          {"pet.svc.conn.resyncs", kDet, conn.resyncs},
          {"pet.svc.cache.hits", kDet, cache.hits},
          {"pet.svc.cache.misses", kDet, cache.misses},
          {"pet.svc.cache.evictions", kDet, cache.evictions},
          {"pet.svc.shard.shed", kProfile, shards.shed},
      });
  // No request sets a gauge: each is read from its cell here.
  out.gauges = {
      {"pet.svc.cache.bytes", kDet, true, static_cast<double>(cache.bytes)},
      {"svc.queue.depth", kProfile, true,
       static_cast<double>(shards.inflight)},
      {"pet.svc.shard.depth", kProfile, true, static_cast<double>(depth)},
      {"pet.svc.shard.steal", kProfile, true,
       static_cast<double>(shards.stolen)},
  };
  out.histograms.push_back(
      {"pet.svc.pop.latency_slots", kDet,
       std::vector<double>(kSvcLatencySlotBounds.begin(),
                           kSvcLatencySlotBounds.end()),
       std::vector<std::uint64_t>(pops.latency_slots.begin(),
                                  pops.latency_slots.end())});
  return out;
}

/// Merge `extra` into `base` by name: a name `base` lacks is inserted,
/// one it has is combined by `combine(base_value, extra_value)`.
template <typename Value, typename Combine>
void merge_by_name(std::vector<Value>& base, std::vector<Value>& extra,
                   Combine combine) {
  for (Value& value : extra) {
    const auto it =
        std::find_if(base.begin(), base.end(),
                     [&](const Value& v) { return v.name == value.name; });
    if (it == base.end()) {
      base.push_back(std::move(value));
    } else {
      combine(*it, value);
    }
  }
  std::sort(base.begin(), base.end(), [](const Value& a, const Value& b) {
    return a.name < b.name;
  });
}

}  // namespace

obs::Snapshot metrics_snapshot(const EstimationService& service) {
  obs::Snapshot snapshot = obs::MetricsRegistry::instance().snapshot();
  obs::Snapshot cells = service_cells(service);
  merge_by_name(snapshot.counters, cells.counters,
                [](auto& into, const auto& from) { into.value += from.value; });
  merge_by_name(snapshot.gauges, cells.gauges,
                [](auto& into, const auto& from) { into = from; });
  merge_by_name(snapshot.histograms, cells.histograms,
                [](auto& into, const auto& from) {
                  for (std::size_t i = 0;
                       i < into.counts.size() && i < from.counts.size(); ++i) {
                    into.counts[i] += from.counts[i];
                  }
                });
  return snapshot;
}

void retire_service_metrics(const EstimationService& service) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  const obs::Snapshot cells = service_cells(service);
  for (const obs::Snapshot::CounterValue& c : cells.counters) {
    registry.counter(c.name, c.domain).add(c.value);
  }
  for (const obs::Snapshot::GaugeValue& g : cells.gauges) {
    registry.gauge(g.name, g.domain).set(g.value);
  }
  for (const obs::Snapshot::HistogramValue& h : cells.histograms) {
    registry.histogram(h.name, h.bounds, h.domain).add_counts(h.counts);
  }
}

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
  const obs::Snapshot snapshot = metrics_snapshot(service);
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

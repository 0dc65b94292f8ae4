// Rendering of the kMetrics wire command's JSON payloads (docs/service.md).
//
// Three document shapes, all under the pet.obs.v1 schema tag:
//
//   scope kFull          — the standard obs::metrics_json document with one
//                          extra top-level "service" member,
//   scope kDeterministic — schema/level + the Domain::kDeterministic
//                          fragments + "service"; no "profile".  This is
//                          the payload compared byte-for-byte across
//                          worker_threads in service_test,
//   scope kPopulation    — one population's pet.svc.pop.* slice rendered
//                          from its registry cells.
//
// The "service" member is rendered from the always-on service/registry
// cells (PopulationStats, ConnectionTotals, FlightRecorder), which are the
// same cells kMonitor folds — one source of truth on both commands.
//
// The same cells back every svc.* and pet.svc.* metric name: the service
// keeps no obs counter of its own, and this file is the one place that
// names them (docs/observability.md).  metrics_snapshot() merges them into
// the registry's snapshot for every export (kMetrics, petd's Prometheus
// dump), and ~EstimationService hands their final values to the registry,
// so an export taken after the service is gone still carries them.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "service/registry.hpp"

namespace pet::svc {

class EstimationService;

/// The `"service":{...}` top-level member fragment: per-population stats,
/// fold totals, connection totals, result-cache counters, flight-recorder
/// occupancy.  `include_profile` additionally renders the per-shard
/// breakdown ("shards"), which depends on the configured shard count and
/// on scheduling — it rides only in scope-kFull documents so the
/// deterministic export stays byte-identical at shards 1/2/8.
[[nodiscard]] std::string render_service_member(
    const EstimationService& service, bool include_profile);

/// The process registry's snapshot with every svc.* / pet.svc.* name added
/// from `service`'s cells: counters and histogram buckets add to what the
/// registry holds (services already shut down), gauges read the live value.
/// The names report the cells at any obs level.
[[nodiscard]] obs::Snapshot metrics_snapshot(const EstimationService& service);

/// Add `service`'s final svc.* / pet.svc.* values into the process registry
/// (counters and histograms add, gauges are set); ~EstimationService calls
/// this once its shards have drained.
void retire_service_metrics(const EstimationService& service);

/// Full pet.obs.v1 document for scope kFull (deterministic_only=false) or
/// kDeterministic (=true), rendered from metrics_snapshot().
[[nodiscard]] std::string render_metrics_document(
    const EstimationService& service, bool deterministic_only);

/// Single-population document for scope kPopulation.
[[nodiscard]] std::string render_population_document(
    std::uint64_t population_id, const PopulationStatsSnapshot& stats);

}  // namespace pet::svc

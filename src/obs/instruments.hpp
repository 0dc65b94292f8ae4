// The repo's metric catalogue in one place.  Instrumented code pulls a
// bundle (function-local static: registered once, cheap handles after) and
// bumps handles behind a counters_enabled() guard:
//
//   if (obs::counters_enabled()) obs::sim_instruments().idle.add();
//
// Naming scheme (docs/observability.md): dot-separated lowercase,
// <subsystem>.<object>.<measure>.  Deterministic by default; anything
// scheduling- or time-dependent must register with Domain::kProfile.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace pet::obs {

/// sim::Medium slot loop: outcomes, responder census, link bits.
struct SimInstruments {
  Counter idle;          ///< sim.slot.idle
  Counter singleton;     ///< sim.slot.singleton
  Counter collision;     ///< sim.slot.collision
  Counter downlink_bits; ///< sim.downlink.bits
  Counter uplink_bits;   ///< sim.uplink.bits
  Histogram responders;  ///< sim.slot.responders (true transmitter count)
};

inline const SimInstruments& sim_instruments() {
  static const SimInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    SimInstruments b;
    b.idle = reg.counter("sim.slot.idle");
    b.singleton = reg.counter("sim.slot.singleton");
    b.collision = reg.counter("sim.slot.collision");
    b.downlink_bits = reg.counter("sim.downlink.bits");
    b.uplink_bits = reg.counter("sim.uplink.bits");
    b.responders = reg.histogram("sim.slot.responders",
                                 {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0});
    return b;
  }();
  return bundle;
}

/// sim::FaultModel: impairment activity and loss-chain dynamics.
struct FaultInstruments {
  Counter erased_replies;     ///< sim.fault.erased_replies
  Counter noise_busy_slots;   ///< sim.fault.noise_busy_slots
  Counter outage_slots;       ///< sim.fault.outage_slots
  Counter burst_slots;        ///< sim.fault.burst_slots (slots in bad state)
  Counter noise_slots;        ///< sim.fault.noise_slots (slots in noisy state)
  Counter burst_transitions;  ///< sim.fault.burst_transitions
  Counter noise_transitions;  ///< sim.fault.noise_transitions
  Counter churn_departed;     ///< sim.fault.churn_departed
  Counter churn_arrived;      ///< sim.fault.churn_arrived
  Counter captured_slots;     ///< sim.fault.captured_slots
};

inline const FaultInstruments& fault_instruments() {
  static const FaultInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    FaultInstruments b;
    b.erased_replies = reg.counter("sim.fault.erased_replies");
    b.noise_busy_slots = reg.counter("sim.fault.noise_busy_slots");
    b.outage_slots = reg.counter("sim.fault.outage_slots");
    b.burst_slots = reg.counter("sim.fault.burst_slots");
    b.noise_slots = reg.counter("sim.fault.noise_slots");
    b.burst_transitions = reg.counter("sim.fault.burst_transitions");
    b.noise_transitions = reg.counter("sim.fault.noise_transitions");
    b.churn_departed = reg.counter("sim.fault.churn_departed");
    b.churn_arrived = reg.counter("sim.fault.churn_arrived");
    b.captured_slots = reg.counter("sim.fault.captured_slots");
    return b;
  }();
  return bundle;
}

/// SlotLedger mirror: one naming scheme for the same totals the ledger
/// carries, bumped wherever a ledger mutates (Medium and the in-memory
/// channel backends; the multi-reader controller's *fused* ledger reports
/// separately as chan.fused.* to avoid double-counting its zone Mediums).
struct LedgerInstruments {
  Counter idle_slots;       ///< chan.ledger.idle_slots
  Counter singleton_slots;  ///< chan.ledger.singleton_slots
  Counter collision_slots;  ///< chan.ledger.collision_slots
  Counter retry_slots;      ///< chan.ledger.retry_slots
  Counter reader_bits;      ///< chan.ledger.reader_bits
  Counter tag_bits;         ///< chan.ledger.tag_bits
};

inline const LedgerInstruments& ledger_instruments() {
  static const LedgerInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    LedgerInstruments b;
    b.idle_slots = reg.counter("chan.ledger.idle_slots");
    b.singleton_slots = reg.counter("chan.ledger.singleton_slots");
    b.collision_slots = reg.counter("chan.ledger.collision_slots");
    b.retry_slots = reg.counter("chan.ledger.retry_slots");
    b.reader_bits = reg.counter("chan.ledger.reader_bits");
    b.tag_bits = reg.counter("chan.ledger.tag_bits");
    return b;
  }();
  return bundle;
}

/// Per-backend channel activity under chan.<backend>.*; each backend keeps
/// one function-local static bundle (exact/sorted/sampled/device/fused).
struct ChannelInstruments {
  Counter rounds;       ///< chan.<backend>.rounds (begin_round calls)
  Counter probe_slots;  ///< chan.<backend>.probe_slots (prefix queries)
  Counter frame_slots;  ///< chan.<backend>.frame_slots (framed-ALOHA slots)
  Counter busy_slots;   ///< chan.<backend>.busy_slots (non-idle outcomes)

  explicit ChannelInstruments(std::string_view backend) {
    MetricsRegistry& reg = MetricsRegistry::instance();
    const std::string prefix = "chan." + std::string(backend) + ".";
    rounds = reg.counter(prefix + "rounds");
    probe_slots = reg.counter(prefix + "probe_slots");
    frame_slots = reg.counter(prefix + "frame_slots");
    busy_slots = reg.counter(prefix + "busy_slots");
  }
};

/// Mirror one accounted slot into the chan.ledger.* counters (call only
/// under counters_enabled(); shared by the in-memory channel backends —
/// Medium-backed runs mirror from Medium::run_slot instead).
inline void record_ledger_slot(std::size_t responders, unsigned downlink_bits,
                               std::uint64_t tag_bits) {
  const LedgerInstruments& li = ledger_instruments();
  if (responders == 0) {
    li.idle_slots.add();
  } else if (responders == 1) {
    li.singleton_slots.add();
  } else {
    li.collision_slots.add();
  }
  li.reader_bits.add(downlink_bits);
  li.tag_bits.add(tag_bits);
}

/// SortedPetChannel construction — the per-trial re-keying hot path
/// (docs/performance.md).  builds/codes fold deterministically; everything
/// else describes *how* the most recent build ran (SIMD tier, phase
/// timing), which depends on the host CPU and PET_SIMD — Domain::kProfile
/// by the usual rule.
struct BuildInstruments {
  Counter builds;            ///< pet.build.builds (channel (re)builds)
  Counter codes;             ///< pet.build.codes (codes placed)
  Gauge simd_lanes;          ///< pet.build.simd_lanes (profile: 1/2/4/8)
  Gauge partition_workers;   ///< pet.build.partition_workers (profile;
                             ///  deprecated, always 1 — docs/observability.md)
  Counter hash_us;           ///< pet.build.hash_us (profile: counting pass)
  Counter sort_us;           ///< pet.build.sort_us (profile: placement pass;
                             ///  the name predates the bucket index)
};

inline const BuildInstruments& build_instruments() {
  static const BuildInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    BuildInstruments b;
    b.builds = reg.counter("pet.build.builds");
    b.codes = reg.counter("pet.build.codes");
    b.simd_lanes = reg.gauge("pet.build.simd_lanes", Domain::kProfile);
    b.partition_workers =
        reg.gauge("pet.build.partition_workers", Domain::kProfile);
    b.hash_us = reg.counter("pet.build.hash_us", Domain::kProfile);
    b.sort_us = reg.counter("pet.build.sort_us", Domain::kProfile);
    return b;
  }();
  return bundle;
}

/// pet::gen2 MAC layer: slot-outcome splits as the Gen2 reader decodes
/// them, Select/Query command census, Q-adaptation trajectory, and session
/// inventoried-flag dynamics.  `q_last` tracks whatever frame finished most
/// recently, which under the parallel trial engine depends on scheduling —
/// hence Domain::kProfile; everything else folds deterministically.
struct Gen2Instruments {
  Counter idle_slots;        ///< gen2.slot.idle
  Counter singleton_slots;   ///< gen2.slot.singleton
  Counter collision_slots;   ///< gen2.slot.collision
  Counter captured_slots;    ///< gen2.slot.captured
  Counter false_busy_slots;  ///< gen2.slot.false_busy
  Counter select_commands;   ///< gen2.select.commands
  Counter select_bits;       ///< gen2.select.bits
  Counter query_commands;    ///< gen2.query.commands (Query + QueryRep)
  Counter query_adjusts;     ///< gen2.query.adjusts (QueryAdjust commands)
  Counter session_flips;     ///< gen2.session.flips (A<->B transitions)
  Counter session_decays;    ///< gen2.session.decays (S1 timer expiries)
  Histogram q_values;        ///< gen2.query.q (Q issued per Query/Adjust)
  Gauge q_last;              ///< gen2.query.q_last (profile: latest Q)
};

inline const Gen2Instruments& gen2_instruments() {
  static const Gen2Instruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    Gen2Instruments b;
    b.idle_slots = reg.counter("gen2.slot.idle");
    b.singleton_slots = reg.counter("gen2.slot.singleton");
    b.collision_slots = reg.counter("gen2.slot.collision");
    b.captured_slots = reg.counter("gen2.slot.captured");
    b.false_busy_slots = reg.counter("gen2.slot.false_busy");
    b.select_commands = reg.counter("gen2.select.commands");
    b.select_bits = reg.counter("gen2.select.bits");
    b.query_commands = reg.counter("gen2.query.commands");
    b.query_adjusts = reg.counter("gen2.query.adjusts");
    b.session_flips = reg.counter("gen2.session.flips");
    b.session_decays = reg.counter("gen2.session.decays");
    b.q_values = reg.histogram("gen2.query.q",
                               {0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0});
    b.q_last = reg.gauge("gen2.query.q_last", Domain::kProfile);
    return b;
  }();
  return bundle;
}

/// core::RobustPetEstimator: voting re-reads, health verdicts, widenings.
struct RobustInstruments {
  Counter estimates;          ///< core.robust.estimates
  Counter reread_slots;       ///< core.robust.reread_slots
  Counter overturned_probes;  ///< core.robust.overturned_probes
  Counter budget_exhausted;   ///< core.robust.budget_exhausted
  Counter health_healthy;     ///< core.robust.health.healthy
  Counter health_degraded;    ///< core.robust.health.degraded
  Counter health_at_risk;     ///< core.robust.health.at_risk
  Counter ci_widened;         ///< core.robust.ci_widened
  Histogram widening;         ///< core.robust.widening (CI widening factor)
};

inline const RobustInstruments& robust_instruments() {
  static const RobustInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    RobustInstruments b;
    b.estimates = reg.counter("core.robust.estimates");
    b.reread_slots = reg.counter("core.robust.reread_slots");
    b.overturned_probes = reg.counter("core.robust.overturned_probes");
    b.budget_exhausted = reg.counter("core.robust.budget_exhausted");
    b.health_healthy = reg.counter("core.robust.health.healthy");
    b.health_degraded = reg.counter("core.robust.health.degraded");
    b.health_at_risk = reg.counter("core.robust.health.at_risk");
    b.ci_widened = reg.counter("core.robust.ci_widened");
    b.widening = reg.histogram("core.robust.widening",
                               {1.0, 1.1, 1.25, 1.5, 2.0, 3.0});
    return b;
  }();
  return bundle;
}

/// pet::svc (petd) request lifecycle: admission, shedding, retries,
/// degradation, framing hygiene.  Queue depth and latency depend on wall
/// clock and scheduling, so they live in Domain::kProfile; the lifecycle
/// counters are deterministic given the request stream.
struct SvcInstruments {
  Counter req_accepted;     ///< svc.req.accepted
  Counter req_completed;    ///< svc.req.completed
  Counter req_shed;         ///< svc.req.shed (RESOURCE_EXHAUSTED responses)
  Counter req_rejected;     ///< svc.req.rejected (typed non-shed errors)
  Counter req_degraded;     ///< svc.req.degraded (best-effort replies)
  Counter deadline_misses;  ///< svc.deadline.misses (truncated round loops)
  Counter retry_attempts;   ///< svc.retry.attempts
  Counter retry_backoff_slots;  ///< svc.retry.backoff_slots
  Counter retry_exhausted;  ///< svc.retry.exhausted (UNAVAILABLE responses)
  Counter frame_malformed;  ///< svc.frame.malformed (decode/parse errors)
  Counter frame_version_skew;  ///< svc.frame.version_skew
  Gauge queue_depth;        ///< svc.queue.depth (profile: inflight requests)
  Histogram latency_us;     ///< svc.req.latency_us (profile: wall clock)
};

inline const SvcInstruments& svc_instruments() {
  static const SvcInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    SvcInstruments b;
    b.req_accepted = reg.counter("svc.req.accepted");
    b.req_completed = reg.counter("svc.req.completed");
    b.req_shed = reg.counter("svc.req.shed");
    b.req_rejected = reg.counter("svc.req.rejected");
    b.req_degraded = reg.counter("svc.req.degraded");
    b.deadline_misses = reg.counter("svc.deadline.misses");
    b.retry_attempts = reg.counter("svc.retry.attempts");
    b.retry_backoff_slots = reg.counter("svc.retry.backoff_slots");
    b.retry_exhausted = reg.counter("svc.retry.exhausted");
    b.frame_malformed = reg.counter("svc.frame.malformed");
    b.frame_version_skew = reg.counter("svc.frame.version_skew");
    b.queue_depth = reg.gauge("svc.queue.depth", Domain::kProfile);
    b.latency_us = reg.histogram(
        "svc.req.latency_us",
        {100.0, 1000.0, 5000.0, 20000.0, 100000.0, 1000000.0},
        Domain::kProfile);
    return b;
  }();
  return bundle;
}

/// Slot-unit latency bounds shared by the pet.svc.pop.latency_slots
/// histogram below and the service's per-population aggregates
/// (svc::PopulationStats) — one histogram shape on both sides of the wire
/// export, in the deterministic domain (slots, not wall time).
inline constexpr std::array<double, 7> kSvcLatencySlotBounds = {
    0.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0};

/// Aggregate over every population the service has handled (the registry's
/// per-entry cells are the per-population breakdown; this bundle is the
/// obs-registry mirror that rides along in pet.obs.v1 documents and BENCH
/// "metrics" members).  Slot-unit and event-count cells only, so the whole
/// bundle is deterministic at any worker_threads.
struct SvcPopInstruments {
  Counter requests;        ///< pet.svc.pop.requests
  Counter ok;              ///< pet.svc.pop.ok
  Counter degraded;        ///< pet.svc.pop.degraded
  Counter truncated;       ///< pet.svc.pop.truncated
  Counter errors;          ///< pet.svc.pop.errors
  Counter shed;            ///< pet.svc.pop.shed
  Counter deadline_misses; ///< pet.svc.pop.deadline_misses
  Counter retries;         ///< pet.svc.pop.retries
  Counter backoff_slots;   ///< pet.svc.pop.backoff_slots
  Counter query_slots;     ///< pet.svc.pop.query_slots
  Counter rounds;          ///< pet.svc.pop.rounds
  Counter rounds_planned;  ///< pet.svc.pop.rounds_planned
  Counter cache_hits;      ///< pet.svc.pop.cache_hits
  Histogram latency_slots; ///< pet.svc.pop.latency_slots (deterministic)
};

inline const SvcPopInstruments& svc_pop_instruments() {
  static const SvcPopInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    SvcPopInstruments b;
    b.requests = reg.counter("pet.svc.pop.requests");
    b.ok = reg.counter("pet.svc.pop.ok");
    b.degraded = reg.counter("pet.svc.pop.degraded");
    b.truncated = reg.counter("pet.svc.pop.truncated");
    b.errors = reg.counter("pet.svc.pop.errors");
    b.shed = reg.counter("pet.svc.pop.shed");
    b.deadline_misses = reg.counter("pet.svc.pop.deadline_misses");
    b.retries = reg.counter("pet.svc.pop.retries");
    b.backoff_slots = reg.counter("pet.svc.pop.backoff_slots");
    b.query_slots = reg.counter("pet.svc.pop.query_slots");
    b.rounds = reg.counter("pet.svc.pop.rounds");
    b.rounds_planned = reg.counter("pet.svc.pop.rounds_planned");
    b.cache_hits = reg.counter("pet.svc.pop.cache_hits");
    b.latency_slots = reg.histogram(
        "pet.svc.pop.latency_slots",
        std::vector<double>(kSvcLatencySlotBounds.begin(),
                            kSvcLatencySlotBounds.end()));
    return b;
  }();
  return bundle;
}

/// svc::ResultCache in front of the estimation shards: hit/miss/eviction
/// traffic and resident size.  Hits, misses, and evictions are pure
/// functions of the request script (the cache is keyed on deterministic
/// request content), so the counters stay in the default domain; bytes is a
/// point-in-time residency gauge and is deterministic for the same reason,
/// but note that ANY cache counter differs between cache-on and cache-off
/// runs — the cross-configuration byte-identity contract covers response
/// frames and registry folds, not this bundle (docs/service.md).
struct SvcCacheInstruments {
  Counter hits;       ///< pet.svc.cache.hits
  Counter misses;     ///< pet.svc.cache.misses
  Counter evictions;  ///< pet.svc.cache.evictions
  Gauge bytes;        ///< pet.svc.cache.bytes (resident payload + overhead)
};

inline const SvcCacheInstruments& svc_cache_instruments() {
  static const SvcCacheInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    SvcCacheInstruments b;
    b.hits = reg.counter("pet.svc.cache.hits");
    b.misses = reg.counter("pet.svc.cache.misses");
    b.evictions = reg.counter("pet.svc.cache.evictions");
    b.bytes = reg.gauge("pet.svc.cache.bytes");
    return b;
  }();
  return bundle;
}

/// Population-affine shard plane (svc::ShardSet): admission pressure and
/// scheduling behaviour.  Everything here depends on which shard a request
/// lands on — a function of the configured shard *count* — or on thread
/// interleaving, so the whole bundle is Domain::kProfile: the deterministic
/// export must stay byte-identical at shards 1/2/8.
struct SvcShardInstruments {
  Gauge depth;    ///< pet.svc.shard.depth (deepest per-shard inflight)
  Counter shed;   ///< pet.svc.shard.shed (admission sheds charged per shard)
  Gauge steal;    ///< pet.svc.shard.steal (tasks stolen inside shard pools)
};

inline const SvcShardInstruments& svc_shard_instruments() {
  static const SvcShardInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    SvcShardInstruments b;
    b.depth = reg.gauge("pet.svc.shard.depth", Domain::kProfile);
    b.shed = reg.counter("pet.svc.shard.shed", Domain::kProfile);
    b.steal = reg.gauge("pet.svc.shard.steal", Domain::kProfile);
    return b;
  }();
  return bundle;
}

/// Transport-side connection hygiene reported by the petd accept loop:
/// session lifetimes, frame/byte volumes, decoder resyncs.  Byte and frame
/// counts depend on what clients send, so they are deterministic only for
/// a scripted client; they stay in the default domain because they carry
/// no timing.
struct SvcConnInstruments {
  Counter opened;     ///< pet.svc.conn.opened
  Counter closed;     ///< pet.svc.conn.closed
  Counter frames_rx;  ///< pet.svc.conn.frames_rx
  Counter frames_tx;  ///< pet.svc.conn.frames_tx
  Counter bytes_rx;   ///< pet.svc.conn.bytes_rx
  Counter bytes_tx;   ///< pet.svc.conn.bytes_tx
  Counter resyncs;    ///< pet.svc.conn.resyncs (decoder recoveries)
};

inline const SvcConnInstruments& svc_conn_instruments() {
  static const SvcConnInstruments bundle = [] {
    MetricsRegistry& reg = MetricsRegistry::instance();
    SvcConnInstruments b;
    b.opened = reg.counter("pet.svc.conn.opened");
    b.closed = reg.counter("pet.svc.conn.closed");
    b.frames_rx = reg.counter("pet.svc.conn.frames_rx");
    b.frames_tx = reg.counter("pet.svc.conn.frames_tx");
    b.bytes_rx = reg.counter("pet.svc.conn.bytes_rx");
    b.bytes_tx = reg.counter("pet.svc.conn.bytes_tx");
    b.resyncs = reg.counter("pet.svc.conn.resyncs");
    return b;
  }();
  return bundle;
}

}  // namespace pet::obs

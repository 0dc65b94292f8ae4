// The repo's metric catalogue in one place.  Instrumented code pulls a
// bundle (function-local static: registered once, cheap handles after) and
// bumps handles behind a counters_enabled() guard:
//
//   if (obs::counters_enabled()) obs::sim_instruments().idle.add();
//
// The one exception is a component that already keeps its own cells: the
// estimation service renders its svc.* and pet.svc.* names from them at
// export (service/metrics_export.hpp), so only its wall-clock latency
// histogram is registered here.
//
// Naming scheme (docs/observability.md): dot-separated lowercase,
// <subsystem>.<object>.<measure>.  Deterministic by default; anything
// scheduling- or time-dependent must register with Domain::kProfile.
#pragma once

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

/// pet::svc request wall-clock latency, the one service metric the registry
/// stores.  Every other svc.* and pet.svc.* name is rendered at export from
/// the service's own cells (service/metrics_export.hpp) and has no handle
/// here.
struct SvcInstruments {
  Histogram latency_us;  ///< svc.req.latency_us (profile: wall clock)
};

inline const SvcInstruments& svc_instruments() {
  static const SvcInstruments bundle = [] {
    SvcInstruments b;
    b.latency_us = MetricsRegistry::instance().histogram(
        "svc.req.latency_us",
        {100.0, 1000.0, 5000.0, 20000.0, 100000.0, 1000000.0},
        Domain::kProfile);
    return b;
  }();
  return bundle;
}

}  // namespace pet::obs

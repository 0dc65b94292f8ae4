// pet::svc EstimationService: the fault-tolerant request engine behind petd
// (docs/service.md).
//
// Lifecycle of a request:
//
//   submit() ─ route ─ admission ─ resolve ─┬─ miss ─> shard worker ─> run
//              │       │           │        └─ else ─> caller's thread
//              │       │           │                   (ready future)
//              │       ├ drain?  -> SHUTTING_DOWN
//              │       └ shard inflight > budget -> RESOURCE_EXHAUSTED (shed)
//              │                   │
//              │                   └ estimates: protocol major, payload,
//              │                     ε/δ/robust, population, one cache lookup
//              └ shard = shard_of(population_id)
//
// The shard pool runs the estimator and nothing else: an estimate that
// found its population and missed the cache.  Every other admitted request
// is answered on the caller's thread — a cache hit (stored payload, fold
// replay), register, unregister, ping, monitor, metrics, flight dump, and
// every estimate that answers with a typed error.  The estimator run:
//   ├ link fault? -> seeded retry w/ capped exp. backoff; dry budget
//   │  -> UNAVAILABLE
//   ├ deadline (slot budget) can't fit plan -> fewer rounds + RoundGate
//   │  truncation -> degraded=1, wider CI
//   └ budget gone before round 1 -> DEADLINE_EXCEEDED
//
// The service is partitioned into N population-affine *shards* (shard.hpp):
// each owns a slice of the registry's lock space, its own worker pool, and
// its own inflight-admission budget, so overload shedding and queueing are
// charged per shard and a hot population cannot inflate a cold population's
// latency.  In front of the shards sits a bounded LRU *result cache*
// (cache.hpp) keyed on (population epoch, request seed, accuracy contract,
// deadline, vote params); hits return the stored wire payload and replay
// the per-population fold, so every deterministic export is cache-invariant.
//
// Determinism contract: given the same request (id, seed, ε, δ, deadline)
// against the same registered population and service seeds, the response —
// estimate, CI, retry schedule, degraded/truncated flags — is byte-identical
// at any pool size, any shard count, and with the cache on or off.
// Everything time-like is measured in reply-window slots (backoff slots,
// deadline slot budgets); wall-clock deadline enforcement exists only as an
// opt-in daemon backstop and is off wherever determinism is asserted.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>

#include "service/cache.hpp"
#include "service/errors.hpp"
#include "service/flight.hpp"
#include "service/frame.hpp"
#include "service/messages.hpp"
#include "service/registry.hpp"
#include "service/retry.hpp"
#include "service/shard.hpp"
#include "sim/faults.hpp"

namespace pet::svc {

struct ServiceConfig {
  RegistryConfig registry{};
  RetryPolicy retry{};

  /// Transient link-fault model consulted once per estimate attempt (the
  /// "connection" to the tag field, not per-probe impairments).  Inert by
  /// default; chaos runs turn the knobs.  Each request draws from a private
  /// FaultModel seeded derive(link_faults.seed, request seed), so fault
  /// sequences replay per request regardless of arrival order.
  sim::ChannelImpairments link_faults{};

  /// Admission cap: split evenly across the shards into per-shard budgets
  /// (max(1, max_inflight / shards) each); requests in flight (queued +
  /// executing) beyond their shard's budget are shed immediately with
  /// RESOURCE_EXHAUSTED.
  std::size_t max_inflight = 256;

  /// Pool width for estimator runs (cache-missing estimates; everything
  /// else is answered on the submitting thread); 0 picks
  /// hardware_threads().  The resolved width is split max(1, width /
  /// shards) threads per shard.
  unsigned worker_threads = 0;

  /// Population-affine shard count (shard = shard_of(population_id, N));
  /// 0 derives from the resolved worker width (derive_shard_count).
  unsigned shards = 0;

  /// Result-cache bounds (cache.hpp).  cache_entries == 0 disables the
  /// cache entirely — the default, so tests and benches opt in explicitly.
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = std::size_t{1} << 22;

  /// k-of-m voting parameters forwarded to RobustPetEstimator for
  /// robust=1 requests.
  unsigned vote_reads = 3;
  unsigned vote_quorum = 2;

  /// Worst-case slot cost of one estimation round, used to decide how many
  /// rounds fit a deadline budget *before* running (the degrade decision
  /// must not depend on outcomes it hasn't computed yet).
  /// Wall-clock backstop (daemon only): when > 0, a request's slot budget
  /// is also mapped to a steady-clock deadline at slot_us microseconds per
  /// slot and the round gate additionally stops on wall overrun.  Breaks
  /// bit-determinism by design; keep 0 in tests and benches.
  std::uint64_t slot_us = 0;

  /// Ring size of the flight recorder (last N per-request records, see
  /// flight.hpp).  Capped so a full kFlightDump reply always fits
  /// kMaxPayload.
  std::size_t flight_capacity = 256;

  void validate() const;

  /// Worker width after the 0 -> hardware_threads() default.
  [[nodiscard]] unsigned resolved_worker_threads() const noexcept;
  /// Shard count after the 0 -> derive_shard_count(workers) default.
  [[nodiscard]] unsigned resolved_shards() const noexcept;
};

class EstimationService {
 public:
  explicit EstimationService(ServiceConfig config = {});
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Admission-controlled execution.  Only an estimate that must run the
  /// estimator (it found its population and missed the cache) goes to its
  /// shard's pool, and its future becomes ready when the worker finishes.
  /// Every other request — shed and drain refusals, cache hits, register,
  /// unregister, the control plane, estimates answered by a typed error —
  /// is answered on the calling thread and returns a ready future.
  [[nodiscard]] std::future<Frame> submit(Frame request);

  /// Synchronous request execution on the calling thread, without
  /// admission or the pool (the direct path for tests and single-threaded
  /// tools).  Total: every input frame, however malformed, yields exactly
  /// one response frame.
  [[nodiscard]] Frame handle(const Frame& request);

  /// Enter drain: new submissions are refused with SHUTTING_DOWN, round
  /// gates of in-flight estimates trip at the next round boundary (they
  /// finish quickly as degraded best-effort responses).  Idempotent.
  void begin_shutdown() noexcept;
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Service-wide lifecycle totals (the kMonitor payload), read from the
  /// same cells every export renders (request_totals(), connection_totals()
  /// and the registry's per-population fold), so kMonitor and kMetrics
  /// cannot disagree.  shed = admission refusals + RESOURCE_EXHAUSTED
  /// replies; malformed_frames = MALFORMED_FRAME replies + decoder resyncs.
  [[nodiscard]] MonitorReply stats() const;

  [[nodiscard]] PopulationRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const PopulationRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const FlightRecorder& flight() const noexcept {
    return flight_;
  }
  [[nodiscard]] const ShardSet& shards() const noexcept { return *shards_; }
  [[nodiscard]] unsigned shard_count() const noexcept {
    return shards_->count();
  }
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }
  [[nodiscard]] ResultCacheStats cache_stats() const { return cache_.stats(); }

  /// Count a malformed *frame* (decode-level garbage the session layer
  /// already resynced past) as a decoder resync; parse-level errors are
  /// MALFORMED_FRAME replies, counted inside handle().  svc.frame.malformed
  /// and kMonitor's malformed_frames are the sum of the two.
  void note_malformed_frame() noexcept;

  // Transport accounting hooks for the session layer (petd's accept loop).
  // They feed the connection totals that the pet.svc.conn.* names render;
  // a transport that doesn't call them simply exports zeros.
  void note_connection_opened() noexcept;
  void note_connection_closed() noexcept;
  void note_bytes_received(std::size_t bytes) noexcept;
  void note_frame_received() noexcept;
  void note_frame_sent(std::size_t wire_bytes) noexcept;

  /// Plain-value snapshot of the transport counters (kMetrics "connections"
  /// member).
  struct ConnectionTotals {
    std::uint64_t opened = 0;
    std::uint64_t closed = 0;
    std::uint64_t frames_rx = 0;
    std::uint64_t frames_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t resyncs = 0;
  };
  [[nodiscard]] ConnectionTotals connection_totals() const noexcept;

  /// Plain-value snapshot of the request-lifecycle cells.  Every reply of
  /// handle() (submitted or direct) is counted once, by status; accepted and
  /// completed count submit() calls only.
  struct RequestTotals {
    std::uint64_t accepted = 0;        ///< submit() calls admitted
    std::uint64_t completed = 0;       ///< admitted requests answered
    std::uint64_t admission_shed = 0;  ///< submit() refusals (drain, cap)
    std::uint64_t retry_attempts = 0;  ///< link-fault retries actually run
    std::uint64_t retry_backoff_slots = 0;  ///< slots those retries waited
    /// handle() replies by StatusCode value.
    std::array<std::uint64_t, kStatusCodeCount> replies{};

    [[nodiscard]] std::uint64_t replies_with(StatusCode status) const noexcept {
      return replies[static_cast<std::size_t>(status)];
    }
  };
  [[nodiscard]] RequestTotals request_totals() const noexcept;

  /// Test hook: RAII occupation of `slots` admission slots, for driving the
  /// shed path deterministically without timing games.  The two-argument
  /// form holds `slots` on EVERY shard (any subsequent estimate competes
  /// with the hold); the population form holds only on that population's
  /// shard, which is how per-shard isolation is asserted.
  class [[nodiscard]] InflightHold {
   public:
    InflightHold(EstimationService& service, std::size_t slots) noexcept;
    InflightHold(EstimationService& service, std::size_t slots,
                 std::uint64_t population_id) noexcept;
    ~InflightHold();
    InflightHold(const InflightHold&) = delete;
    InflightHold& operator=(const InflightHold&) = delete;

   private:
    EstimationService& service_;
    std::size_t slots_;
    unsigned shard_ = 0;
    bool all_shards_ = false;
  };

 private:
  /// An estimate request after its checks and its one cache lookup
  /// (resolve()).  `reply` is the answer unless the estimator must run: a
  /// typed error, or a cache hit's stored payload.  Any other command
  /// resolves to an empty value.
  struct Resolved {
    EstimateRequest request;  ///< as parsed (default when it did not parse)
    std::shared_ptr<PopulationRegistry::Entry> entry;  ///< once found
    ResultCache::Key key;
    bool hit = false;
    ResultCache::Replay replay;  ///< a hit's fold deltas
    Frame reply;

    /// Found its population and missed the cache (or found it disabled):
    /// the one request the shard pool runs.
    [[nodiscard]] bool needs_estimator() const noexcept {
      return entry != nullptr && !hit;
    }
  };
  using Clock = std::chrono::steady_clock;

  /// Resolve an estimate in order: protocol major, payload, ε/δ/robust,
  /// population, cache key, then one ResultCache::lookup.  A version-skewed
  /// frame stays unresolved (handle_request's version check answers it),
  /// so only estimates that find their population count a hit or a miss.
  [[nodiscard]] Resolved resolve(const Frame& request);

  /// An admitted request's shard slot, counted accepted when taken.  Its
  /// holder answers the request; dropping it counts the request completed
  /// and releases the slot, after the reply exists and before the caller
  /// can see it, also when answering throws.  A cache-missing estimate
  /// carries it into the pool task.
  class Admission {
   public:
    Admission(EstimationService& service, unsigned shard) noexcept;
    Admission(Admission&& other) noexcept;
    ~Admission();

   private:
    EstimationService* service_;
    unsigned shard_;
  };

  /// One reply and one flight record.  queue_us = started - admitted;
  /// handle_us runs from `started` to the reply.
  Frame handle_request(const Frame& request, unsigned shard,
                       Resolved& estimate, Clock::time_point admitted,
                       Clock::time_point started);
  Frame handle_ping(const Frame& request);
  Frame handle_register(const Frame& request);
  Frame handle_unregister(const Frame& request);
  Frame handle_estimate(Resolved& estimate, RequestRecord& record);
  Frame handle_monitor(const Frame& request);
  Frame handle_metrics(const Frame& request, RequestRecord& record);
  Frame handle_flight_dump(const Frame& request);

  /// Population-affine routing: estimate/register/unregister frames lead
  /// with their population id, which picks the shard; control-plane and
  /// unparseable frames land on shard 0.
  [[nodiscard]] unsigned route_shard(const Frame& request) const noexcept;

  /// Admission-refusal bookkeeping shared by the drain and inflight-cap
  /// paths: counts, population attribution, flight record; returns the
  /// " [request-id=...]" suffix for the error detail.
  std::string note_shed(const Frame& request, StatusCode status,
                        unsigned shard);

  ServiceConfig config_;
  PopulationRegistry registry_;
  ResultCache cache_;
  std::unique_ptr<ShardSet> shards_;
  FlightRecorder flight_;

  std::atomic<bool> draining_{false};

  // Lifecycle cells (relaxed: monotone counters, read via
  // request_totals()).  Degraded/deadline/retry totals live in the
  // registry's per-population cells, not here, so each fact has one cell.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> admission_shed_{0};
  std::atomic<std::uint64_t> retry_attempts_{0};
  std::atomic<std::uint64_t> retry_backoff_slots_{0};
  std::array<std::atomic<std::uint64_t>, kStatusCodeCount> replies_{};

  // Transport totals fed by the note_connection_* / note_frame_* hooks.
  std::atomic<std::uint64_t> conn_opened_{0};
  std::atomic<std::uint64_t> conn_closed_{0};
  std::atomic<std::uint64_t> frames_rx_{0};
  std::atomic<std::uint64_t> frames_tx_{0};
  std::atomic<std::uint64_t> bytes_rx_{0};
  std::atomic<std::uint64_t> bytes_tx_{0};
  std::atomic<std::uint64_t> resyncs_{0};
};

}  // namespace pet::svc

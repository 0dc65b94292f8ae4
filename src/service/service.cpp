#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <utility>

#include "common/ensure.hpp"
#include "core/confidence.hpp"
#include "core/estimator.hpp"
#include "core/robust_estimator.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "rng/prng.hpp"
#include "service/metrics_export.hpp"

namespace pet::svc {

namespace {

/// Seed-stream tags for the per-request derivations (rng::derive_seed
/// contract: distinct stream ids never collide across subsystems).
constexpr std::uint64_t kBackoffStream = 0x5bacull;

[[nodiscard]] Frame ready_error(CommandId command, StatusCode status,
                                std::string_view detail) {
  return make_error(command, static_cast<std::uint16_t>(status), detail);
}

[[nodiscard]] std::future<Frame> ready_future(Frame frame) {
  std::promise<Frame> promise;
  promise.set_value(std::move(frame));
  return promise.get_future();
}

/// The " [request-id=0x…]" an error detail ends with, which finds the
/// request in the flight recorder.
[[nodiscard]] std::string request_id_suffix(std::uint64_t request_id) {
  return " [request-id=" + format_request_id(request_id) + "]";
}

[[nodiscard]] bool valid_fraction(double v) noexcept {
  return std::isfinite(v) && v > 0.0 && v < 1.0;
}

[[nodiscard]] std::vector<std::uint8_t> utf8_bytes(const std::string& text) {
  return {text.begin(), text.end()};
}

[[nodiscard]] std::uint64_t f64_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Typed-error estimate outcome: fill the flight record with what the
/// attempt consumed and fold it into the population's cells so failed
/// requests are just as visible as successes.  Every caller but retry
/// exhaustion failed on the deadline budget.
void note_estimate_failure(PopulationStats& pop, RequestRecord& record,
                           std::uint32_t retries, std::uint64_t backoff_slots,
                           bool deadline_miss) {
  record.retries = retries;
  record.backoff_slots = backoff_slots;
  record.latency_slots = backoff_slots;
  pop.errors.fetch_add(1, std::memory_order_relaxed);
  pop.retries.fetch_add(retries, std::memory_order_relaxed);
  pop.backoff_slots.fetch_add(backoff_slots, std::memory_order_relaxed);
  pop.observe_latency_slots(backoff_slots);
  if (deadline_miss) {
    pop.deadline_misses.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Ok estimate outcome, fresh or replayed from the result cache: fill the
/// flight record and fold the reply into the population's cells.  Both
/// paths charge through here, so every fold-derived
/// surface (kMonitor, kMetrics stats objects, BENCH fold rows) is
/// cache-invariant; only cache_hits tells a hit apart, and only the channel
/// work (chan.* / core.robust.* counters) is skipped on one.
void fold_estimate(PopulationStats& pop, const ResultCache::Replay& rep,
                   std::uint64_t budget, bool cache_hit,
                   RequestRecord& record) {
  record.planned_rounds = rep.planned_rounds;
  record.rounds = rep.rounds;
  record.retries = rep.retries;
  record.backoff_slots = rep.backoff_slots;
  record.query_slots = rep.query_slots;
  record.latency_slots = rep.backoff_slots + rep.query_slots;
  record.degrade_mask = rep.degrade_mask;
  record.cache_hit = cache_hit ? 1 : 0;
  // The slot budget stopped the round loop early: a deadline miss that
  // still produced a (degraded) answer.
  const bool deadline_miss = rep.truncated != 0 && budget > 0;

  pop.ok.fetch_add(1, std::memory_order_relaxed);
  pop.retries.fetch_add(rep.retries, std::memory_order_relaxed);
  pop.backoff_slots.fetch_add(rep.backoff_slots, std::memory_order_relaxed);
  pop.query_slots.fetch_add(rep.query_slots, std::memory_order_relaxed);
  pop.rounds.fetch_add(rep.rounds, std::memory_order_relaxed);
  pop.rounds_planned.fetch_add(rep.planned_rounds, std::memory_order_relaxed);
  if (cache_hit) pop.cache_hits.fetch_add(1, std::memory_order_relaxed);
  pop.observe_latency_slots(record.latency_slots);
  if (rep.truncated != 0) {
    pop.truncated.fetch_add(1, std::memory_order_relaxed);
  }
  if (deadline_miss) {
    pop.deadline_misses.fetch_add(1, std::memory_order_relaxed);
  }
  if (rep.degraded != 0) {
    pop.degraded.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void ServiceConfig::validate() const {
  retry.validate();
  link_faults.validate();
  expects(max_inflight >= 1, "ServiceConfig: max_inflight must be >= 1");
  expects(shards <= 64, "ServiceConfig: shards must be in [0, 64]");
  expects(vote_reads >= 1 && vote_reads <= 15,
          "ServiceConfig: vote_reads must be in [1, 15]");
  expects(vote_quorum >= 1 && vote_quorum <= vote_reads,
          "ServiceConfig: vote_quorum must be in [1, vote_reads]");
  // 88 bytes per record + 4-byte count must fit one kFlightDump payload.
  expects(flight_capacity >= 1 && flight_capacity <= 8192,
          "ServiceConfig: flight_capacity must be in [1, 8192]");
}

unsigned ServiceConfig::resolved_worker_threads() const noexcept {
  return worker_threads != 0 ? worker_threads
                             : runtime::ThreadPool::hardware_threads();
}

unsigned ServiceConfig::resolved_shards() const noexcept {
  return shards != 0 ? shards : derive_shard_count(resolved_worker_threads());
}

EstimationService::EstimationService(ServiceConfig config)
    : config_(std::move(config)),
      registry_(config_.registry, config_.resolved_shards()),
      cache_(ResultCacheConfig{config_.cache_entries, config_.cache_bytes}),
      flight_(config_.flight_capacity) {
  config_.validate();
  shards_ = std::make_unique<ShardSet>(config_.resolved_shards(),
                                       config_.resolved_worker_threads(),
                                       config_.max_inflight);
}

EstimationService::~EstimationService() {
  begin_shutdown();
  // Every submitted request resolves before the pools join; the cells are
  // final after this, and an export taken once the service is gone still
  // carries its names.
  shards_->drain();
  retire_service_metrics(*this);
}

void EstimationService::begin_shutdown() noexcept {
  draining_.store(true, std::memory_order_release);
}

void EstimationService::note_malformed_frame() noexcept {
  resyncs_.fetch_add(1, std::memory_order_relaxed);
}

void EstimationService::note_connection_opened() noexcept {
  conn_opened_.fetch_add(1, std::memory_order_relaxed);
}

void EstimationService::note_connection_closed() noexcept {
  conn_closed_.fetch_add(1, std::memory_order_relaxed);
}

void EstimationService::note_bytes_received(std::size_t bytes) noexcept {
  bytes_rx_.fetch_add(bytes, std::memory_order_relaxed);
}

void EstimationService::note_frame_received() noexcept {
  frames_rx_.fetch_add(1, std::memory_order_relaxed);
}

void EstimationService::note_frame_sent(std::size_t wire_bytes) noexcept {
  frames_tx_.fetch_add(1, std::memory_order_relaxed);
  bytes_tx_.fetch_add(wire_bytes, std::memory_order_relaxed);
}

EstimationService::ConnectionTotals EstimationService::connection_totals()
    const noexcept {
  ConnectionTotals totals;
  totals.opened = conn_opened_.load(std::memory_order_relaxed);
  totals.closed = conn_closed_.load(std::memory_order_relaxed);
  totals.frames_rx = frames_rx_.load(std::memory_order_relaxed);
  totals.frames_tx = frames_tx_.load(std::memory_order_relaxed);
  totals.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  totals.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  totals.resyncs = resyncs_.load(std::memory_order_relaxed);
  return totals;
}

EstimationService::RequestTotals EstimationService::request_totals()
    const noexcept {
  RequestTotals totals;
  totals.accepted = accepted_.load(std::memory_order_relaxed);
  totals.completed = completed_.load(std::memory_order_relaxed);
  totals.admission_shed = admission_shed_.load(std::memory_order_relaxed);
  totals.retry_attempts = retry_attempts_.load(std::memory_order_relaxed);
  totals.retry_backoff_slots =
      retry_backoff_slots_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < replies_.size(); ++i) {
    totals.replies[i] = replies_[i].load(std::memory_order_relaxed);
  }
  return totals;
}

EstimationService::InflightHold::InflightHold(EstimationService& service,
                                              std::size_t slots) noexcept
    : service_(service), slots_(slots), all_shards_(true) {
  for (unsigned shard = 0; shard < service_.shards_->count(); ++shard) {
    for (std::size_t i = 0; i < slots_; ++i) {
      (void)service_.shards_->acquire(shard);
    }
  }
}

EstimationService::InflightHold::InflightHold(
    EstimationService& service, std::size_t slots,
    std::uint64_t population_id) noexcept
    : service_(service),
      slots_(slots),
      shard_(service.shards_->route(population_id)) {
  for (std::size_t i = 0; i < slots_; ++i) {
    (void)service_.shards_->acquire(shard_);
  }
}

EstimationService::InflightHold::~InflightHold() {
  if (all_shards_) {
    for (unsigned shard = 0; shard < service_.shards_->count(); ++shard) {
      for (std::size_t i = 0; i < slots_; ++i) {
        service_.shards_->release(shard);
      }
    }
  } else {
    for (std::size_t i = 0; i < slots_; ++i) {
      service_.shards_->release(shard_);
    }
  }
}

EstimationService::Admission::Admission(EstimationService& service,
                                        unsigned shard) noexcept
    : service_(&service), shard_(shard) {
  service_->accepted_.fetch_add(1, std::memory_order_relaxed);
}

EstimationService::Admission::Admission(Admission&& other) noexcept
    : service_(std::exchange(other.service_, nullptr)), shard_(other.shard_) {}

EstimationService::Admission::~Admission() {
  // The admitted request completes where its slot is released, and both
  // precede the caller's view of the reply: a caller holding it reads
  // accepted = completed + inflight from kMonitor, and one that destroys
  // the service next folds final cells.
  if (service_ == nullptr) return;
  service_->completed_.fetch_add(1, std::memory_order_relaxed);
  service_->shards_->release(shard_);
}

unsigned EstimationService::route_shard(const Frame& request) const noexcept {
  switch (static_cast<CommandId>(request.command)) {
    case CommandId::kEstimate:
    case CommandId::kRegister:
    case CommandId::kUnregister: {
      // All three payloads lead with the population id (u64 LE); peeking it
      // here instead of fully parsing keeps routing O(1).  Short payloads
      // fall through to shard 0 and fail parsing inside the handler.
      if (request.payload.size() >= 8) {
        std::uint64_t id = 0;
        std::memcpy(&id, request.payload.data(), sizeof(id));
        return shards_->route(id);
      }
      return 0;
    }
    default:
      return 0;  // control plane
  }
}

std::string EstimationService::note_shed(const Frame& request,
                                         StatusCode status, unsigned shard) {
  admission_shed_.fetch_add(1, std::memory_order_relaxed);
  if (status == StatusCode::kResourceExhausted) shards_->note_shed(shard);

  RequestRecord record;
  record.request_id = derive_request_id(request);
  record.command = request.command;
  record.status = static_cast<std::uint16_t>(status);
  record.degrade_mask = kDegradeShed;
  record.shard = static_cast<std::uint16_t>(shard);
  if (static_cast<CommandId>(request.command) == CommandId::kEstimate) {
    if (const auto req = parse_estimate_request(request.payload)) {
      record.population_id = req->population_id;
      if (const auto entry = registry_.find(req->population_id)) {
        entry->stats.shed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
#if PET_OBS_COMPILED
  flight_.record(record);
#endif
  return request_id_suffix(record.request_id);
}

std::future<Frame> EstimationService::submit(Frame request) {
  const auto command = static_cast<CommandId>(request.command);
  const unsigned shard = route_shard(request);
  if (draining()) {
    const std::string suffix =
        note_shed(request, StatusCode::kShuttingDown, shard);
    return ready_future(ready_error(command, StatusCode::kShuttingDown,
                                    "service draining" + suffix));
  }
  // Optimistic admission against the routed shard's budget: grab a slot,
  // give it back if the shard was over its cap.  Monitor/ping and the
  // observability exports are control-plane and always admitted — an
  // operator must be able to observe an overloaded server.
  const bool control_plane =
      command == CommandId::kPing || command == CommandId::kMonitor ||
      command == CommandId::kMetrics || command == CommandId::kFlightDump;
  const std::size_t occupied = shards_->acquire(shard);
  if (!control_plane && occupied > shards_->max_inflight_per_shard()) {
    shards_->release(shard);
    const std::string suffix =
        note_shed(request, StatusCode::kResourceExhausted, shard);
    return ready_future(
        ready_error(command, StatusCode::kResourceExhausted,
                    "shard inflight cap reached; retry with backoff" + suffix));
  }
  Admission admission(*this, shard);

  // Only the estimator goes to the pool.  A hit is the stored payload of
  // the miss it replays and the session writes replies in request order,
  // so answering the rest here changes no reply's bytes.
  const auto admitted = Clock::now();
  Resolved estimate = resolve(request);
  if (!estimate.needs_estimator()) {
    return ready_future(
        handle_request(request, shard, estimate, admitted, admitted));
  }
  auto task = std::make_shared<std::packaged_task<Frame()>>(
      [this, shard, admitted, request = std::move(request),
       estimate = std::move(estimate),
       admission = std::move(admission)]() mutable {
        const Admission done = std::move(admission);
        return handle_request(request, shard, estimate, admitted,
                              Clock::now());
      });
  std::future<Frame> future = task->get_future();
  shards_->submit(shard, [task] { (*task)(); });
  return future;
}

Frame EstimationService::handle(const Frame& request) {
  // Direct path: route the same way submit() would so flight records carry
  // the same shard stamp either way.
  const auto started = Clock::now();
  Resolved estimate = resolve(request);
  return handle_request(request, route_shard(request), estimate, started,
                        started);
}

EstimationService::Resolved EstimationService::resolve(const Frame& request) {
  Resolved out;
  if (static_cast<CommandId>(request.command) != CommandId::kEstimate ||
      request.ver_major != kProtocolMajor) {
    return out;
  }
  const auto req = parse_estimate_request(request.payload);
  if (!req) {
    out.reply = ready_error(CommandId::kEstimate, StatusCode::kMalformedFrame,
                            "estimate payload did not parse");
    return out;
  }
  out.request = *req;
  if (!valid_fraction(req->epsilon) || !valid_fraction(req->delta) ||
      req->robust > 1) {
    out.reply = ready_error(CommandId::kEstimate, StatusCode::kInvalidArgument,
                            "epsilon/delta must be in (0, 1); robust in {0, 1}");
    return out;
  }
  out.entry = registry_.find(req->population_id);
  if (out.entry == nullptr) {
    out.reply = ready_error(CommandId::kEstimate, StatusCode::kNotFound,
                            "population id not registered");
    return out;
  }
  out.entry->stats.requests.fetch_add(1, std::memory_order_relaxed);

  // --- Result cache: epoch-pinned exact-payload lookup --------------------
  // The key captures every input the response bytes depend on; the entry's
  // epoch pins the population *content*, so a re-registered id can never
  // serve stale bytes (registry.hpp).  A hit answers with the stored
  // payload; a miss runs the estimator, which publishes its payload.
  out.key.epoch = out.entry->epoch;
  out.key.population_id = req->population_id;
  out.key.seed = req->seed;
  out.key.epsilon_bits = f64_bits(req->epsilon);
  out.key.delta_bits = f64_bits(req->delta);
  out.key.deadline_slots = req->deadline_slots;
  out.key.robust = req->robust;
  out.key.vote_reads = config_.vote_reads;
  out.key.vote_quorum = config_.vote_quorum;
  std::vector<std::uint8_t> payload;
  out.hit = cache_.lookup(out.key, payload, out.replay);
  if (out.hit) {
    out.reply = make_response(CommandId::kEstimate,
                              static_cast<std::uint16_t>(StatusCode::kOk),
                              std::move(payload));
  }
  return out;
}

Frame EstimationService::handle_request(const Frame& request, unsigned shard,
                                        Resolved& estimate,
                                        Clock::time_point admitted,
                                        Clock::time_point started) {
  const auto command = static_cast<CommandId>(request.command);

  // Every request gets a deterministic content-addressed ID (flight.hpp)
  // and leaves one flight-recorder record behind; under full tracing the
  // ID also becomes the span's trial coordinate so JSONL traces and
  // kFlightDump records join on it.
  RequestRecord record;
  record.request_id = derive_request_id(request);
  record.command = request.command;
  record.queue_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(started - admitted)
          .count());
  record.shard = static_cast<std::uint16_t>(shard);
  std::optional<obs::ScopedSpan> span;
  if (obs::full_enabled()) {
    obs::set_trace_trial(record.request_id);
    span.emplace("svc.request");
    span->add("request_id",
              obs::json_token(format_request_id(record.request_id)));
    span->add("command", obs::json_token(to_string(command)));
  }

  Frame response;
  if (request.ver_major != kProtocolMajor) {
    response = ready_error(command, StatusCode::kIncompatibleVersion,
                           "protocol major version mismatch");
  } else {
    switch (command) {
      case CommandId::kPing: response = handle_ping(request); break;
      case CommandId::kRegister: response = handle_register(request); break;
      case CommandId::kUnregister:
        response = handle_unregister(request);
        break;
      case CommandId::kEstimate:
        response = handle_estimate(estimate, record);
        break;
      case CommandId::kMonitor: response = handle_monitor(request); break;
      case CommandId::kMetrics:
        response = handle_metrics(request, record);
        break;
      case CommandId::kFlightDump:
        response = handle_flight_dump(request);
        break;
      default:
        response = ready_error(command, StatusCode::kUnknownCommand,
                               "unknown command id");
        break;
    }
  }

  // Every reply is counted once, here, by status: the svc.* reply names
  // and kMonitor's shed and malformed_frames are sums over these cells.
  record.status = response.status;
  if (record.status < replies_.size()) {
    replies_[record.status].fetch_add(1, std::memory_order_relaxed);
  }
  if (record.status ==
      static_cast<std::uint16_t>(StatusCode::kResourceExhausted)) {
    record.degrade_mask |= kDegradeShed;
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - started);
  record.handle_us = static_cast<std::uint64_t>(elapsed.count());
  if (obs::counters_enabled()) {
    obs::svc_instruments().latency_us.observe(
        static_cast<double>(elapsed.count()));
  }
  if (span) {
    span->add("status", obs::json_token(to_string(
                            static_cast<StatusCode>(record.status))));
    span->add("population", std::to_string(record.population_id));
    span->add("degrade_mask", std::to_string(record.degrade_mask));
  }
#if PET_OBS_COMPILED
  flight_.record(record);
#endif
  return response;
}

Frame EstimationService::handle_ping(const Frame& request) {
  (void)request;
  return make_response(CommandId::kPing,
                       static_cast<std::uint16_t>(StatusCode::kOk));
}

Frame EstimationService::handle_register(const Frame& request) {
  const auto req = parse_register_request(request.payload);
  if (!req) {
    return ready_error(CommandId::kRegister, StatusCode::kMalformedFrame,
                       "register payload did not parse");
  }
  switch (registry_.register_population(req->population_id, req->tag_count,
                                        req->population_seed)) {
    case PopulationRegistry::RegisterOutcome::kRegistered: {
      RegisterReply reply;
      reply.population_id = req->population_id;
      reply.tag_count = req->tag_count;
      return make_response(CommandId::kRegister,
                           static_cast<std::uint16_t>(StatusCode::kOk),
                           encode(reply));
    }
    case PopulationRegistry::RegisterOutcome::kAlreadyExists:
      return ready_error(CommandId::kRegister, StatusCode::kAlreadyExists,
                         "population id already registered");
    case PopulationRegistry::RegisterOutcome::kFull:
      return ready_error(CommandId::kRegister, StatusCode::kResourceExhausted,
                         "population registry full");
    case PopulationRegistry::RegisterOutcome::kInvalidRequest:
      return ready_error(CommandId::kRegister, StatusCode::kInvalidArgument,
                         "tag count out of range");
  }
  return ready_error(CommandId::kRegister, StatusCode::kInternal,
                     "unreachable register outcome");
}

Frame EstimationService::handle_unregister(const Frame& request) {
  const auto req = parse_unregister_request(request.payload);
  if (!req) {
    return ready_error(CommandId::kUnregister, StatusCode::kMalformedFrame,
                       "unregister payload did not parse");
  }
  if (!registry_.unregister_population(req->population_id)) {
    return ready_error(CommandId::kUnregister, StatusCode::kNotFound,
                       "population id not registered");
  }
  return make_response(CommandId::kUnregister,
                       static_cast<std::uint16_t>(StatusCode::kOk));
}

Frame EstimationService::handle_monitor(const Frame& request) {
  (void)request;
  return make_response(CommandId::kMonitor,
                       static_cast<std::uint16_t>(StatusCode::kOk),
                       encode(stats()));
}

MonitorReply EstimationService::stats() const {
  const PopulationStatsSnapshot pops = registry_.fold_stats();
  const RequestTotals requests = request_totals();
  MonitorReply reply;
  reply.populations = registry_.size();
  reply.inflight = shards_->total_inflight();
  reply.accepted = requests.accepted;
  reply.completed = requests.completed;
  reply.shed = requests.admission_shed +
               requests.replies_with(StatusCode::kResourceExhausted);
  reply.degraded = pops.degraded;
  reply.deadline_misses = pops.deadline_misses;
  reply.retries = pops.retries;
  reply.malformed_frames = requests.replies_with(StatusCode::kMalformedFrame) +
                           resyncs_.load(std::memory_order_relaxed);
  return reply;
}

Frame EstimationService::handle_metrics(const Frame& request,
                                        RequestRecord& record) {
#if !PET_OBS_COMPILED
  (void)record;
  (void)request;
  return ready_error(CommandId::kMetrics, StatusCode::kUnsupported,
                     "metrics export compiled out (PET_OBS=OFF)");
#else
  const auto req = parse_metrics_request(request.payload);
  if (!req) {
    return ready_error(CommandId::kMetrics, StatusCode::kMalformedFrame,
                       "metrics payload did not parse");
  }
  switch (static_cast<MetricsScope>(req->scope)) {
    case MetricsScope::kFull:
      return make_response(
          CommandId::kMetrics, static_cast<std::uint16_t>(StatusCode::kOk),
          utf8_bytes(render_metrics_document(*this, false)));
    case MetricsScope::kDeterministic:
      return make_response(
          CommandId::kMetrics, static_cast<std::uint16_t>(StatusCode::kOk),
          utf8_bytes(render_metrics_document(*this, true)));
    case MetricsScope::kPopulation: {
      record.population_id = req->population_id;
      const auto entry = registry_.find(req->population_id);
      if (entry == nullptr) {
        return ready_error(CommandId::kMetrics, StatusCode::kNotFound,
                           "population id not registered");
      }
      PopulationStatsSnapshot snap;
      snap.accumulate(entry->stats);
      return make_response(
          CommandId::kMetrics, static_cast<std::uint16_t>(StatusCode::kOk),
          utf8_bytes(render_population_document(req->population_id, snap)));
    }
  }
  return ready_error(CommandId::kMetrics, StatusCode::kInvalidArgument,
                     "unknown metrics scope");
#endif
}

Frame EstimationService::handle_flight_dump(const Frame& request) {
#if !PET_OBS_COMPILED
  (void)request;
  return ready_error(CommandId::kFlightDump, StatusCode::kUnsupported,
                     "flight recorder compiled out (PET_OBS=OFF)");
#else
  const auto req = parse_flight_dump_request(request.payload);
  if (!req) {
    return ready_error(CommandId::kFlightDump, StatusCode::kMalformedFrame,
                       "flight-dump payload did not parse");
  }
  FlightDumpReply reply;
  reply.records = flight_.dump(req->request_id, req->max_records);
  return make_response(CommandId::kFlightDump,
                       static_cast<std::uint16_t>(StatusCode::kOk),
                       encode(reply));
#endif
}

Frame EstimationService::handle_estimate(Resolved& estimate,
                                         RequestRecord& record) {
  const EstimateRequest& req = estimate.request;
  record.population_id = req.population_id;
  const std::uint64_t budget = req.deadline_slots;  // 0 = unlimited
  if (estimate.hit) {
    fold_estimate(estimate.entry->stats, estimate.replay, budget,
                  /*cache_hit=*/true, record);
    if (obs::full_enabled()) {
      obs::trace_event("svc.estimate",
                       {{"population", std::to_string(record.population_id)},
                        {"rounds", std::to_string(record.rounds)},
                        {"planned", std::to_string(record.planned_rounds)},
                        {"degraded",
                         std::to_string(record.degrade_mask != 0 ? 1 : 0)},
                        {"retries", std::to_string(record.retries)},
                        {"cache_hit", "1"}});
    }
  }
  if (!estimate.needs_estimator()) return std::move(estimate.reply);

  PopulationRegistry::Entry& entry = *estimate.entry;
  PopulationStats& pop = entry.stats;

  // --- Transient link faults: seeded retry with capped backoff -----------
  // One FaultModel per request, seeded from (service fault seed, request
  // seed): the fault sequence — and therefore the retry schedule — is a
  // pure function of the request, independent of arrival order or pool
  // width.  Backoff is virtual (slots charged against the deadline budget,
  // not slept): petd must not burn a worker thread idling.
  sim::ChannelImpairments link = config_.link_faults;
  link.seed = rng::derive_seed(config_.link_faults.seed, req.seed);
  sim::FaultModel fault_model(link);
  BackoffSchedule schedule(config_.retry,
                           rng::derive_seed(req.seed, kBackoffStream));
  std::uint64_t backoff_spent = 0;
  for (std::uint32_t attempt = 1;; ++attempt) {
    fault_model.begin_slot();
    const bool link_fault =
        fault_model.reader_down() || fault_model.erases_reply();
    if (!link_fault) break;
    if (!schedule.allows_retry(attempt)) {
      note_estimate_failure(pop, record, schedule.retries(), backoff_spent,
                            /*deadline_miss=*/false);
      return ready_error(
          CommandId::kEstimate, StatusCode::kUnavailable,
          "transient link faults outlasted the retry policy" +
              request_id_suffix(record.request_id));
    }
    const std::uint64_t wait = schedule.next_backoff_slots();
    backoff_spent += wait;
    retry_attempts_.fetch_add(1, std::memory_order_relaxed);
    retry_backoff_slots_.fetch_add(wait, std::memory_order_relaxed);
    if (budget > 0 && backoff_spent >= budget) {
      note_estimate_failure(pop, record, schedule.retries(), backoff_spent,
                            /*deadline_miss=*/true);
      return ready_error(
          CommandId::kEstimate, StatusCode::kDeadlineExceeded,
          "retry backoff consumed the deadline budget" +
              request_id_suffix(record.request_id));
    }
  }

  // --- Deadline fit: decide the degrade level before estimating ----------
  const stats::AccuracyRequirement requirement{req.epsilon, req.delta};
  const unsigned tree_height = config_.registry.tree_height;
  core::PetConfig base;
  base.tree_height = tree_height;
  const bool robust = req.robust == 1;

  std::uint64_t planned = 0;
  std::uint64_t slots_per_round = 0;
  std::optional<core::RobustPetEstimator> robust_estimator;
  std::optional<core::PetEstimator> vanilla_estimator;
  if (robust) {
    core::RobustPetConfig rc;
    rc.base = base;
    rc.vote_reads = config_.vote_reads;
    rc.vote_quorum = config_.vote_quorum;
    robust_estimator.emplace(rc, requirement);
    planned = robust_estimator->planned_rounds();
    // Worst case every probe goes to a full m-read vote.
    slots_per_round =
        static_cast<std::uint64_t>(base.worst_case_slots_per_round()) *
        config_.vote_reads;
  } else {
    vanilla_estimator.emplace(base, requirement);
    planned = vanilla_estimator->planned_rounds();
    slots_per_round = base.worst_case_slots_per_round();
  }

  record.planned_rounds = planned;
  const std::uint64_t remaining = budget > 0 ? budget - backoff_spent : 0;
  std::uint64_t fit_rounds = planned;
  if (budget > 0) {
    fit_rounds = std::min<std::uint64_t>(planned, remaining / slots_per_round);
    if (fit_rounds == 0) {
      note_estimate_failure(pop, record, schedule.retries(), backoff_spent,
                            /*deadline_miss=*/true);
      return ready_error(
          CommandId::kEstimate, StatusCode::kDeadlineExceeded,
          "deadline budget cannot fit a single round" +
              request_id_suffix(record.request_id));
    }
  }

  // Wall-clock backstop (daemon only; breaks determinism, see config).
  std::optional<std::chrono::steady_clock::time_point> wall_deadline;
  if (budget > 0 && config_.slot_us > 0) {
    wall_deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(budget * config_.slot_us);
  }

  // --- Run, serialized per population over its long-lived channel --------
  EstimateReply reply;
  reply.population_id = req.population_id;
  reply.planned_rounds = planned;
  reply.retries = schedule.retries();
  reply.backoff_slots = backoff_spent;
  {
    std::lock_guard lock(entry.mutex);
    chan::SortedPetChannel& channel = *entry.channel;
    channel.reset_ledger();
    const core::RoundGate gate =
        [&](std::uint64_t /*rounds_done*/) -> bool {
      if (draining_.load(std::memory_order_relaxed)) return false;
      if (budget > 0) {
        const sim::SlotLedger& led = channel.ledger();
        if (led.total_slots() + led.retry_slots >= remaining) return false;
      }
      if (wall_deadline &&
          std::chrono::steady_clock::now() >= *wall_deadline) {
        return false;
      }
      return true;
    };

    if (robust) {
      const core::RobustEstimateResult result =
          robust_estimator->estimate_with_rounds(channel, fit_rounds,
                                                 req.seed, gate);
      reply.n_hat = result.base.n_hat;
      reply.ci_lo = result.interval.lo;
      reply.ci_hi = result.interval.hi;
      reply.rounds = result.base.rounds;
      reply.truncated = result.base.truncated ? 1 : 0;
      reply.health = static_cast<std::uint8_t>(result.diagnostic.health);
      const sim::SlotLedger& led = result.base.ledger;
      reply.query_slots = led.total_slots() + led.retry_slots;
      if (result.base.truncated) record.degrade_mask |= kDegradeTruncated;
      if (fit_rounds < planned) record.degrade_mask |= kDegradeFitShort;
      if (result.retry_budget_exhausted) {
        record.degrade_mask |= kDegradeRetryBudget;
      }
      if (result.diagnostic.contract_at_risk()) {
        record.degrade_mask |= kDegradeHealth;
      }
    } else {
      const core::EstimateResult result =
          vanilla_estimator->estimate_with_rounds(channel, fit_rounds,
                                                  req.seed, gate);
      reply.n_hat = result.n_hat;
      const core::ConfidenceInterval interval =
          core::confidence_interval(result, req.delta);
      reply.ci_lo = interval.lo;
      reply.ci_hi = interval.hi;
      reply.rounds = result.rounds;
      reply.truncated = result.truncated ? 1 : 0;
      reply.query_slots = result.ledger.total_slots();
      if (result.truncated) record.degrade_mask |= kDegradeTruncated;
      if (fit_rounds < planned) record.degrade_mask |= kDegradeFitShort;
    }
    reply.degraded = record.degrade_mask != 0 ? 1 : 0;
    channel.flush_obs();
  }

  // The miss's outcome is exactly what a later hit replays.
  ResultCache::Replay outcome;
  outcome.planned_rounds = planned;
  outcome.rounds = reply.rounds;
  outcome.query_slots = reply.query_slots;
  outcome.backoff_slots = reply.backoff_slots;
  outcome.retries = reply.retries;
  outcome.degrade_mask = record.degrade_mask;
  outcome.degraded = reply.degraded;
  outcome.truncated = reply.truncated;
  fold_estimate(pop, outcome, budget, /*cache_hit=*/false, record);
  if (obs::full_enabled()) {
    obs::trace_event("svc.estimate",
                     {{"population", std::to_string(req.population_id)},
                      {"rounds", std::to_string(reply.rounds)},
                      {"planned", std::to_string(planned)},
                      {"degraded", std::to_string(reply.degraded)},
                      {"retries", std::to_string(reply.retries)}});
  }

  std::vector<std::uint8_t> payload = encode(reply);
  // Publish only replies that are pure functions of the request: a round
  // loop stopped by the drain flag or the wall-clock backstop produced
  // bytes an identical future request would not reproduce.
  const bool impure_truncation =
      reply.truncated != 0 && (draining_.load(std::memory_order_relaxed) ||
                               wall_deadline.has_value());
  if (cache_.enabled() && !impure_truncation) {
    cache_.insert(estimate.key, payload, outcome);
  }
  return make_response(CommandId::kEstimate,
                       static_cast<std::uint16_t>(StatusCode::kOk),
                       std::move(payload));
}

}  // namespace pet::svc

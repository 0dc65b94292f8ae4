// Workloads wire_cold, wire_hot and wire_churn: the real petd, spawned per
// set-up and driven over its Unix socket by the closed-loop generator.
//
// petd runs pinned (--threads=4 --flight-capacity=8192 --quiet) with its
// default 2 shards and 1024-entry result cache.  Load comes from one
// generator thread over exactly 4 connections; callers of petd hold a
// connection and wait for replies, so the loop is closed.  Set-up (spawn,
// registration, cache warm-up) runs setup_reps times; then an untimed
// warm-up precedes the timed window.
//
// Layers are read from outside only: client round trips, /proc/<pid> for
// petd's CPU, threads and context switches, and petd's own kMetrics and
// kFlightDump replies.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>

#include "daemon.hpp"
#include "loadgen.hpp"
#include "obs/jsonlite.hpp"
#include "rng/prng.hpp"
#include "service/errors.hpp"
#include "service/flight.hpp"
#include "service/messages.hpp"
#include "workloads.hpp"

namespace pet::perf {

namespace {

constexpr unsigned kConnections = 4;
/// Set-up requests (registration, warm-up) pipeline this deep.
constexpr unsigned kSetupDepth = 8;
constexpr std::uint32_t kFlightRecords = 8192;
/// Client-side round trips kept for the flight-record join (2x the ring).
constexpr std::size_t kTailRequests = 2 * kFlightRecords;
constexpr double kClientCpuLimit = 0.8;

// Seed streams (rng::derive_seed): one per input family, so e.g. changing
// the warm-key count never moves a population's tags.
constexpr std::uint64_t kPopulationStream = 0x706f70;
constexpr std::uint64_t kWarmStream = 0x7761726d;
constexpr std::uint64_t kFreshStream = 0x6672657368;
constexpr std::uint64_t kWriterStream = 0x777269746572;
constexpr std::uint64_t kOrderStream = 0x6f72646572;

constexpr double kEpsilon = 0.10;
constexpr double kDelta = 0.05;

/// wire_churn's writer: register(new id, 50,000 tags), then unregister the
/// id registered kWriterLag writes earlier, over a cyclic pool of ids.
constexpr std::uint64_t kWriterTags = 50000;
constexpr std::uint32_t kWriterIds = 4096;
constexpr std::uint32_t kWriterLag = 8;
constexpr std::uint64_t kWriterIdBase = 1ULL << 32;

struct Shape {
  std::uint64_t populations = 0;
  std::uint64_t tags = 0;
  std::uint64_t warm_per_population = 0;  ///< cached keys warmed in set-up
  std::uint32_t fresh = 0;       ///< pre-encoded never-repeating estimates
  unsigned readers = kConnections;
  unsigned depth = 1;
  unsigned warm_per_fresh = 0;   ///< wire_churn's read mix
  bool writer = false;
};

[[nodiscard]] Shape shape_of(WireWorkload workload) {
  Shape s;
  switch (workload) {
    case WireWorkload::kCold:
      // 2^17 unique seeds outlast any plausible window, and even a wrap
      // repeats a key only after 131,072 others: far beyond the cache.
      s.populations = 1024;
      s.tags = 2000;
      s.fresh = 1u << 17;
      break;
    case WireWorkload::kHot:
      s.populations = 16;
      s.tags = 2000;
      s.warm_per_population = 32;
      s.depth = 8;
      break;
    case WireWorkload::kChurn:
      // 512 warm keys, half petd's 1024-entry cache.  Every reader cycles
      // through all of them, so between two reads of a warm key come at
      // most 511 other warm keys and about 3 x 512 / 9 fresh ones: LRU never
      // evicts a warm key, and every warm read hits.
      s.populations = 256;
      s.tags = 2000;
      s.warm_per_population = 2;
      s.fresh = 1u << 15;
      s.readers = kConnections - 1;
      s.warm_per_fresh = 9;
      s.writer = true;
      break;
  }
  return s;
}

enum class Kind : std::uint8_t { kRegister, kUnregister, kWarm, kFresh };

struct FrameInfo {
  Kind kind = Kind::kFresh;
  std::uint32_t key = 0;  ///< warm-key index for kWarm
  std::uint64_t population = 0;
};

/// The warm-up reply every later reply for the key must equal byte for
/// byte.
struct Reference {
  std::vector<std::uint8_t> payload;
  std::uint64_t query_slots = 0;
};

/// Replies of one load phase.
struct Tally {
  std::uint64_t replies = 0;
  std::uint64_t estimates = 0;  ///< successful estimate replies
  std::uint64_t slots = 0;      ///< Σ query_slots of those replies
  std::vector<double> rtt_us;   ///< estimate round trips
  std::vector<double> write_us; ///< register round trips
};

/// Counters from one kMetrics document's "service" member.
struct ServiceCounters {
  double requests = 0, ok = 0, shed = 0, rounds = 0, query_slots = 0;
  double hits = 0, misses = 0, evictions = 0;
  double frames_rx = 0, bytes_rx = 0, bytes_tx = 0, resyncs = 0;
};

[[nodiscard]] double number(const obs::JsonValue* object, const char* key) {
  const obs::JsonValue* value = object == nullptr ? nullptr : object->find(key);
  return value != nullptr && value->is_number() ? value->number : 0.0;
}

[[nodiscard]] std::vector<std::uint32_t> shuffled(std::vector<std::uint32_t> v,
                                                  std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::uint64_t r = rng::derive_seed(seed, i);
    std::swap(v[i - 1], v[static_cast<std::size_t>(r % i)]);
  }
  return v;
}

class WireRun {
 public:
  WireRun(WireWorkload workload, const RunConfig& config,
          WorkloadResult& result)
      : shape_(shape_of(workload)), config_(config), result_(result) {}

  void run();

 private:
  void encode_frames();
  [[nodiscard]] std::vector<Script> setup_scripts(
      const std::vector<std::uint32_t>& frames) const;
  [[nodiscard]] std::vector<Script> window_scripts() const;
  double setup();
  void on_reply(const Reply& reply);
  void record_estimate(const Reply& reply, std::uint64_t query_slots);
  [[nodiscard]] std::optional<ServiceCounters> read_metrics();
  void trace_tail(std::vector<double>& queue_us, std::vector<double>& handle_us,
                  std::vector<double>& transport_us);
  void stop_petd();
  void report_untraced(const std::vector<double>& setups);
  void report_traced(const std::optional<ServiceCounters>& before,
                     const std::optional<ServiceCounters>& after);

  /// Median over load phases [first, last] of `figure(phase)`.
  template <typename Figure>
  [[nodiscard]] double median_over(unsigned first, unsigned last,
                                   Figure&& figure) const {
    std::vector<double> values;
    for (unsigned phase = first; phase <= last; ++phase) {
      values.push_back(figure(phase));
    }
    return quantile(values, 0.5);
  }
  [[nodiscard]] double throughput(unsigned phase) const {
    return static_cast<double>(tallies_[phase].estimates) / sub_s_;
  }

  const Shape shape_;
  const RunConfig& config_;
  WorkloadResult& result_;

  FrameTable frames_;
  std::vector<FrameInfo> info_;
  std::vector<std::uint32_t> register_frames_;
  std::vector<std::uint32_t> warm_frames_;
  std::vector<std::uint32_t> fresh_frames_;
  std::vector<std::uint32_t> writer_register_;
  std::vector<std::uint32_t> writer_unregister_;
  std::vector<Reference> references_;

  std::unique_ptr<PetdProcess> petd_;
  std::unique_ptr<LoadGenerator> generator_;

  bool in_setup_ = false;
  std::vector<double> setup_write_us_;

  // Load phases: 0 is the warm-up, 1..subs_ the (untraced) window in
  // sub-windows of sub_s_ seconds, then on traced runs subs_ + 1..2 subs_
  // the traced half, and last the drain.  End-to-end figures are medians
  // over sub-windows, so outside load during a few seconds does not move
  // them.
  unsigned subs_ = 1;
  double sub_s_ = 0.0;
  std::vector<Tally> tallies_;
  std::vector<PetdProcess::Sample> petd_at_;  ///< sampled at phase starts
  std::vector<double> cpu_at_;

  /// Round trips of the traced half's last kTailRequests estimates: the
  /// span log gets these (bounded however fast petd answers), and petd's
  /// flight records are joined against them.
  struct TailEntry {
    std::uint64_t request_id = 0;
    std::uint64_t send_ns = 0;
    std::uint64_t recv_ns = 0;
  };
  std::vector<TailEntry> tail_;
  std::size_t tail_next_ = 0;
};

void WireRun::encode_frames() {
  const std::uint64_t pop_master =
      rng::derive_seed(config_.seed, kPopulationStream);
  for (std::uint64_t id = 1; id <= shape_.populations; ++id) {
    svc::RegisterRequest req;
    req.population_id = id;
    req.tag_count = shape_.tags;
    req.population_seed = rng::derive_seed(pop_master, id);
    register_frames_.push_back(
        frames_.add(svc::make_request(svc::CommandId::kRegister, svc::encode(req))));
    info_.push_back({Kind::kRegister, 0, id});
  }

  auto estimate = [&](Kind kind, std::uint32_t key, std::uint64_t population,
                      std::uint64_t seed) {
    svc::EstimateRequest req;
    req.population_id = population;
    req.seed = seed;
    req.epsilon = kEpsilon;
    req.delta = kDelta;
    req.robust = 1;
    info_.push_back({kind, key, population});
    return frames_.add(
        svc::make_request(svc::CommandId::kEstimate, svc::encode(req)));
  };

  const std::uint64_t warm_master = rng::derive_seed(config_.seed, kWarmStream);
  const std::uint64_t warm_keys = shape_.populations * shape_.warm_per_population;
  for (std::uint32_t key = 0; key < warm_keys; ++key) {
    warm_frames_.push_back(estimate(Kind::kWarm, key,
                                    1 + key / shape_.warm_per_population,
                                    rng::derive_seed(warm_master, key)));
  }
  references_.assign(warm_keys, Reference{});

  const std::uint64_t fresh_master =
      rng::derive_seed(config_.seed, kFreshStream);
  for (std::uint32_t k = 0; k < shape_.fresh; ++k) {
    fresh_frames_.push_back(estimate(Kind::kFresh, 0,
                                     1 + k % shape_.populations,
                                     rng::derive_seed(fresh_master, k)));
  }

  if (shape_.writer) {
    const std::uint64_t writer_master =
        rng::derive_seed(config_.seed, kWriterStream);
    for (std::uint32_t k = 0; k < kWriterIds; ++k) {
      svc::RegisterRequest reg;
      reg.population_id = kWriterIdBase + k;
      reg.tag_count = kWriterTags;
      reg.population_seed = rng::derive_seed(writer_master, k);
      writer_register_.push_back(frames_.add(
          svc::make_request(svc::CommandId::kRegister, svc::encode(reg))));
      info_.push_back({Kind::kRegister, 0, reg.population_id});
      svc::UnregisterRequest unreg;
      unreg.population_id = reg.population_id;
      writer_unregister_.push_back(frames_.add(
          svc::make_request(svc::CommandId::kUnregister, svc::encode(unreg))));
      info_.push_back({Kind::kUnregister, 0, reg.population_id});
    }
  }
}

std::vector<Script> WireRun::setup_scripts(
    const std::vector<std::uint32_t>& frames) const {
  std::vector<Script> scripts(kConnections);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    scripts[i % kConnections].cycle.push_back(frames[i]);
  }
  for (Script& s : scripts) {
    s.repeat = false;
    s.depth = kSetupDepth;
  }
  return scripts;
}

std::vector<Script> WireRun::window_scripts() const {
  std::vector<Script> scripts(kConnections);
  for (unsigned c = 0; c < shape_.readers; ++c) {
    Script& s = scripts[c];
    s.depth = shape_.depth;
    const std::vector<std::uint32_t> warm =
        shuffled(warm_frames_, rng::derive_seed(config_.seed, kOrderStream + c));
    if (shape_.warm_per_fresh == 0 && !warm.empty()) {
      s.cycle = warm;  // wire_hot: every request a cached key
      continue;
    }
    std::size_t w = 0;
    for (std::size_t k = c; k < fresh_frames_.size(); k += shape_.readers) {
      for (unsigned i = 0; i < shape_.warm_per_fresh && !warm.empty(); ++i) {
        s.cycle.push_back(warm[w++ % warm.size()]);
      }
      s.cycle.push_back(fresh_frames_[k]);
    }
  }
  if (shape_.writer) {
    // Cyclic over the id pool: reg k, unreg k - lag.  The prologue fills
    // the lag so every unregister names a live id.
    Script& s = scripts[kConnections - 1];
    for (std::uint32_t k = 0; k < kWriterLag; ++k) {
      s.prologue.push_back(writer_register_[k]);
    }
    for (std::uint32_t k = kWriterLag; k < kWriterIds + kWriterLag; ++k) {
      s.cycle.push_back(writer_register_[k % kWriterIds]);
      s.cycle.push_back(writer_unregister_[(k - kWriterLag) % kWriterIds]);
    }
  }
  return scripts;
}

void WireRun::on_reply(const Reply& reply) {
  result_.attempt();
  if (!in_setup_) ++tallies_[reply.phase].replies;
  const FrameInfo& info = info_[reply.frame];
  const svc::Frame& response = *reply.response;
  const auto status = static_cast<svc::StatusCode>(response.status);
  if (status != svc::StatusCode::kOk) {
    result_.fail(std::string(svc::to_string(static_cast<svc::CommandId>(
                     response.command))) +
                 " population " + std::to_string(info.population) + ": " +
                 std::string(svc::to_string(status)) + " " +
                 svc::error_detail(response));
    return;
  }
  switch (info.kind) {
    case Kind::kRegister: {
      const auto parsed = svc::parse_register_reply(response.payload);
      if (!parsed || parsed->population_id != info.population) {
        result_.fail("register reply does not parse or names another id");
        return;
      }
      const double us =
          static_cast<double>(reply.recv_ns - reply.send_ns) * 1e-3;
      if (in_setup_) {
        setup_write_us_.push_back(us);
      } else {
        tallies_[reply.phase].write_us.push_back(us);
      }
      return;
    }
    case Kind::kUnregister:
      return;
    case Kind::kWarm: {
      Reference& ref = references_[info.key];
      if (ref.payload.empty()) {
        const auto parsed = svc::parse_estimate_reply(response.payload);
        if (!parsed || parsed->population_id != info.population) {
          result_.fail("warm-up estimate reply does not parse");
          return;
        }
        ref.payload = response.payload;
        ref.query_slots = parsed->query_slots;
      } else if (response.payload != ref.payload) {
        result_.fail("reply for warm key " + std::to_string(info.key) +
                     " differs from its warm-up reply");
        return;
      }
      record_estimate(reply, ref.query_slots);
      return;
    }
    case Kind::kFresh: {
      const auto parsed = svc::parse_estimate_reply(response.payload);
      if (!parsed || parsed->population_id != info.population) {
        result_.fail("estimate reply does not parse or names another id");
        return;
      }
      record_estimate(reply, parsed->query_slots);
      return;
    }
  }
}

void WireRun::record_estimate(const Reply& reply, std::uint64_t query_slots) {
  if (in_setup_) return;
  Tally& tally = tallies_[reply.phase];
  ++tally.estimates;
  tally.slots += query_slots;
  tally.rtt_us.push_back(static_cast<double>(reply.recv_ns - reply.send_ns) *
                         1e-3);
  // The traced half and the drain after it (petd's newest flight records
  // include the drained requests) feed the tail.
  if (config_.traced() && reply.phase > subs_) {
    tail_[tail_next_++ % kTailRequests] = {frames_.request_id(reply.frame),
                                          reply.send_ns, reply.recv_ns};
  }
}

double WireRun::setup() {
  generator_.reset();
  stop_petd();
  const std::uint64_t start = now_ns();
  petd_ = std::make_unique<PetdProcess>(config_.petd_path, config_.work_dir);
  generator_ = std::make_unique<LoadGenerator>(petd_->socket_path(),
                                               kConnections, frames_);
  in_setup_ = true;
  setup_write_us_.clear();
  const auto on_reply = [this](const Reply& r) { this->on_reply(r); };
  for (const auto* batch : {&register_frames_, &warm_frames_}) {
    if (!generator_->run(setup_scripts(*batch), {}, on_reply)) {
      result_.fail("set-up: " + generator_->error());
      break;
    }
  }
  in_setup_ = false;
  return static_cast<double>(now_ns() - start) * 1e-9;
}

void WireRun::stop_petd() {
  if (!petd_) return;
  generator_.reset();
  const int status = petd_->stop();
  if (status != 0) {
    result_.fail("petd exited with status " + std::to_string(status) +
                 " after drain");
  }
  petd_.reset();
}

std::optional<ServiceCounters> WireRun::read_metrics() {
  svc::MetricsRequest request;
  const auto reply = generator_->call(
      svc::make_request(svc::CommandId::kMetrics, svc::encode(request)));
  if (!reply) {
    result_.fail("kMetrics: no reply");
    return std::nullopt;
  }
  // PET_OBS=OFF builds answer UNSUPPORTED: the layers read from kMetrics
  // then report 0, which is not a failure of the system under test.
  if (reply->status == static_cast<std::uint16_t>(svc::StatusCode::kUnsupported)) {
    return std::nullopt;
  }
  if (reply->status != static_cast<std::uint16_t>(svc::StatusCode::kOk)) {
    result_.fail("kMetrics: " + svc::error_detail(*reply));
    return std::nullopt;
  }
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(std::string(reply->payload.begin(), reply->payload.end()));
  } catch (const std::exception& e) {
    result_.fail(std::string("kMetrics document does not parse: ") + e.what());
    return std::nullopt;
  }
  const obs::JsonValue* service = doc.find("service");
  const obs::JsonValue* totals = service ? service->find("totals") : nullptr;
  const obs::JsonValue* cache = service ? service->find("cache") : nullptr;
  const obs::JsonValue* conn = service ? service->find("connections") : nullptr;
  ServiceCounters c;
  c.requests = number(totals, "requests");
  c.ok = number(totals, "ok");
  c.shed = number(totals, "shed");
  c.rounds = number(totals, "rounds");
  c.query_slots = number(totals, "query_slots");
  c.hits = number(cache, "hits");
  c.misses = number(cache, "misses");
  c.evictions = number(cache, "evictions");
  c.frames_rx = number(conn, "frames_rx");
  c.bytes_rx = number(conn, "bytes_rx");
  c.bytes_tx = number(conn, "bytes_tx");
  c.resyncs = number(conn, "resyncs");
  return c;
}

void WireRun::trace_tail(std::vector<double>& queue_us,
                         std::vector<double>& handle_us,
                         std::vector<double>& transport_us) {
  const std::size_t kept = std::min(tail_next_, kTailRequests);
  std::vector<std::uint64_t> span_of(kTailRequests, 0);
  for (std::size_t i = tail_next_ - kept; i < tail_next_; ++i) {
    const TailEntry& entry = tail_[i % kTailRequests];
    span_of[i % kTailRequests] = config_.spans->add(
        0, "petd.rtt", entry.request_id, entry.send_ns, entry.recv_ns);
  }

  svc::FlightDumpRequest request;
  request.max_records = kFlightRecords;
  const auto reply = generator_->call(
      svc::make_request(svc::CommandId::kFlightDump, svc::encode(request)));
  if (!reply) {
    result_.fail("kFlightDump: no reply");
    return;
  }
  if (reply->status == static_cast<std::uint16_t>(svc::StatusCode::kUnsupported)) {
    return;
  }
  const auto dump = reply->status == 0
                        ? svc::parse_flight_dump_reply(reply->payload)
                        : std::nullopt;
  if (!dump) {
    result_.fail("kFlightDump reply does not parse");
    return;
  }

  // Request ids are content addresses, so repeated keys share an id: match
  // each id's records to its client round trips newest first, in order.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_id;
  for (std::size_t i = tail_next_ - kept; i < tail_next_; ++i) {
    by_id[tail_[i % kTailRequests].request_id].push_back(i % kTailRequests);
  }
  for (auto it = dump->records.rbegin(); it != dump->records.rend(); ++it) {
    if (it->command != static_cast<std::uint16_t>(svc::CommandId::kEstimate)) {
      continue;
    }
    const auto queue = static_cast<double>(it->queue_us);
    const auto handle = static_cast<double>(it->handle_us);
    queue_us.push_back(queue);
    handle_us.push_back(handle);
    auto match = by_id.find(it->request_id);
    if (match == by_id.end() || match->second.empty()) continue;
    const std::size_t slot = match->second.back();
    match->second.pop_back();
    const TailEntry& entry = tail_[slot];
    const double rtt = static_cast<double>(entry.recv_ns - entry.send_ns) * 1e-3;
    transport_us.push_back(std::max(0.0, rtt - queue - handle));
    // The record gives durations, not positions: the children are placed
    // back to back in the middle of the round trip, so the round trip's
    // self time is exactly its transport share.
    const auto queue_ns = static_cast<std::uint64_t>(queue * 1e3);
    const auto handle_ns = static_cast<std::uint64_t>(handle * 1e3);
    const std::uint64_t total = entry.recv_ns - entry.send_ns;
    const std::uint64_t inner = std::min(total, queue_ns + handle_ns);
    const std::uint64_t begin = entry.send_ns + (total - inner) / 2;
    config_.spans->add(span_of[slot], "svc.queue", entry.request_id, begin,
                       begin + std::min(inner, queue_ns));
    config_.spans->add(span_of[slot], "svc.handle", entry.request_id,
                       begin + std::min(inner, queue_ns), begin + inner);
  }
}

void WireRun::run() {
  encode_frames();
  std::vector<double> setups;
  for (unsigned rep = 0; rep < config_.setup_reps && result_.failed() == 0;
       ++rep) {
    setups.push_back(setup());
  }
  if (result_.failed() != 0) {
    stop_petd();
    return;
  }

  const std::optional<ServiceCounters> before =
      config_.traced() ? read_metrics() : std::nullopt;
  const unsigned halves = config_.traced() ? 2 : 1;
  const double half_s = config_.seconds / halves;
  subs_ = std::max(1u, static_cast<unsigned>(std::lround(half_s)));
  sub_s_ = half_s / subs_;
  const std::uint64_t warm_end =
      now_ns() + static_cast<std::uint64_t>(config_.warmup_s * 1e9);
  std::vector<std::uint64_t> ends;
  for (unsigned k = 0; k <= halves * subs_; ++k) {
    ends.push_back(warm_end + static_cast<std::uint64_t>(k * sub_s_ * 1e9));
  }
  if (config_.traced()) {
    config_.spans->begin_workload(result_.workload());
    tail_.assign(kTailRequests, TailEntry{});
  }
  tallies_.assign(ends.size() + 1, Tally{});
  petd_at_.assign(ends.size() + 1, PetdProcess::Sample{});
  cpu_at_.assign(ends.size() + 1, 0.0);
  const auto on_reply = [this](const Reply& r) { this->on_reply(r); };
  const auto on_phase = [this](unsigned phase) {
    petd_at_[phase] = petd_->sample();
    cpu_at_[phase] = process_cpu_s();
  };
  if (!generator_->run(window_scripts(), ends, on_reply, on_phase)) {
    result_.fail("load: " + generator_->error());
    stop_petd();
    return;
  }

  if (config_.traced()) {
    const std::optional<ServiceCounters> after = read_metrics();
    report_traced(before, after);
  } else {
    report_untraced(setups);
  }
  stop_petd();
}

void WireRun::report_untraced(const std::vector<double>& setups) {
  const unsigned last = subs_;
  const double slot_us = air_slot_us();
  std::vector<double> rtt_us;
  std::vector<double> write_us;
  double generator_cpu = 0.0;
  for (unsigned phase = 1; phase <= last; ++phase) {
    const Tally& tally = tallies_[phase];
    rtt_us.insert(rtt_us.end(), tally.rtt_us.begin(), tally.rtt_us.end());
    write_us.insert(write_us.end(), tally.write_us.begin(), tally.write_us.end());
    generator_cpu += generator_->phase_cpu_s()[phase];
  }
  const std::uint64_t n = rtt_us.size();
  const double client_cpu = generator_cpu / (sub_s_ * last);
  std::vector<double> setup_s = setups;

  result_.set("throughput",
              median_over(1, last, [&](unsigned p) { return throughput(p); }), n);
  result_.set("p50_us", median_over(1, last, [&](unsigned p) {
                std::vector<double> v = tallies_[p].rtt_us;
                return quantile(v, 0.50);
              }), n);
  result_.set("p99_us", median_over(1, last, [&](unsigned p) {
                std::vector<double> v = tallies_[p].rtt_us;
                return quantile(v, 0.99);
              }), n);
  result_.set("cpu_per_air", median_over(1, last, [&](unsigned p) {
                const double cpu = (cpu_at_[p + 1] - cpu_at_[p]) +
                                   (petd_at_[p + 1].cpu_s - petd_at_[p].cpu_s);
                const double air =
                    static_cast<double>(tallies_[p].slots) * slot_us * 1e-6;
                return air > 0.0 ? cpu / air : 0.0;
              }), n);
  result_.set("rss_mb", petd_at_[last + 1].hwm_mb);
  result_.set("setup_s", quantile(setup_s, 0.5), setup_s.size());
  result_.note("p999_us", "us", quantile(rtt_us, 0.999), n);
  result_.note("client.cpu_ratio", "ratio", client_cpu);
  if (shape_.writer) {
    result_.note("write_p50_us", "us", quantile(write_us, 0.5), write_us.size());
  }
  if (client_cpu >= kClientCpuLimit) {
    result_.fail("load generator saturated: client.cpu_ratio " +
                 std::to_string(client_cpu) + " >= 0.8");
  }
}

void WireRun::report_traced(const std::optional<ServiceCounters>& before,
                            const std::optional<ServiceCounters>& after) {
  std::vector<double> queue_us;
  std::vector<double> handle_us;
  std::vector<double> transport_us;
  trace_tail(queue_us, handle_us, transport_us);
  const std::uint64_t records = queue_us.size();
  result_.set("svc.queue_us_p50", quantile(queue_us, 0.50), records);
  result_.set("svc.queue_us_p99", quantile(queue_us, 0.99), records);
  result_.set("svc.handle_us_p50", quantile(handle_us, 0.50), records);
  result_.set("svc.handle_us_p99", quantile(handle_us, 0.99), records);
  result_.set("petd.transport_us_p50", quantile(transport_us, 0.50),
              transport_us.size());
  result_.set("petd.transport_us_p99", quantile(transport_us, 0.99),
              transport_us.size());

  if (before && after) {
    const ServiceCounters& a = *before;
    const ServiceCounters& b = *after;
    const double lookups = (b.hits - a.hits) + (b.misses - a.misses);
    const double ok = b.ok - a.ok;
    const double submitted = (b.requests - a.requests) + (b.shed - a.shed);
    result_.set("svc.cache.hit_ratio",
                lookups > 0 ? (b.hits - a.hits) / lookups : 0.0);
    result_.set("svc.cache.evictions", b.evictions - a.evictions);
    result_.set("svc.shed_ratio", submitted > 0 ? (b.shed - a.shed) / submitted : 0.0);
    result_.set("core.rounds_per_req", ok > 0 ? (b.rounds - a.rounds) / ok : 0.0);
    result_.set("core.slots_per_req",
                ok > 0 ? (b.query_slots - a.query_slots) / ok : 0.0);
    const double frames = b.frames_rx - a.frames_rx;
    result_.set("petd.bytes_per_req",
                frames > 0 ? ((b.bytes_rx - a.bytes_rx) + (b.bytes_tx - a.bytes_tx)) / frames
                           : 0.0);
    result_.set("petd.resyncs", b.resyncs - a.resyncs);
  }

  const unsigned first = subs_ + 1;
  const unsigned last = 2 * subs_;
  std::uint64_t replies = 0;
  double generator_cpu = 0.0;
  std::vector<double> writes;
  for (unsigned phase = 1; phase <= last; ++phase) {
    const Tally& tally = tallies_[phase];
    writes.insert(writes.end(), tally.write_us.begin(), tally.write_us.end());
    if (phase < first) continue;
    replies += tally.replies;
    generator_cpu += generator_->phase_cpu_s()[phase];
  }
  const PetdProcess::Sample& p0 = petd_at_[first];
  const PetdProcess::Sample& p1 = petd_at_[last + 1];
  const auto per_reply = [replies](double total) {
    return replies > 0 ? total / static_cast<double>(replies) : 0.0;
  };
  result_.set("petd.cpu_us_per_req", per_reply((p1.cpu_s - p0.cpu_s) * 1e6),
              replies);
  result_.set("petd.ctxsw_per_req",
              per_reply(static_cast<double>(p1.ctxsw - p0.ctxsw)), replies);
  result_.set("petd.threads", static_cast<double>(p1.threads));
  result_.set("client.cpu_ratio", generator_cpu / (sub_s_ * subs_));

  // wire_churn's writes run beside the reads; elsewhere the only writes
  // are the set-up registrations.
  if (!shape_.writer) writes = setup_write_us_;
  result_.set("write_p50_us", quantile(writes, 0.5), writes.size());
  const auto tput = [this](unsigned p) { return throughput(p); };
  result_.set("trace_overhead",
              trace_overhead_percent(median_over(1, subs_, tput),
                                     median_over(first, last, tput)));
}

}  // namespace

void run_wire(WireWorkload workload, const RunConfig& config,
              WorkloadResult& result) {
  WireRun(workload, config, result).run();
  if (config.traced()) run_microbenches(config, result);
}

}  // namespace pet::perf

// petctl: command-line client for petd (docs/service.md).
//
// Control-plane verbs (ping/register/estimate/monitor/unregister) speak one
// strict request-response exchange each.  `soak` is the chaos harness: it
// hammers a petd instance through a svc::ChaosLink — seeded frame drops,
// bit flips, and connection closes on the *client* side of the wire — and
// asserts the server stays live (ping round-trip) and consistent
// (monitor counters parse) the whole way.  Exit 0 means the daemon survived
// without a hang; any protocol stall exits nonzero.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/parse_number.hpp"
#include "obs/jsonlite.hpp"
#include "rng/prng.hpp"
#include "service/chaos.hpp"
#include "service/errors.hpp"
#include "service/flight.hpp"
#include "service/frame.hpp"
#include "service/messages.hpp"
#include "service/shard.hpp"

namespace {

using namespace pet;

int usage() {
  std::fprintf(
      stderr,
      "petctl -- client for the petd estimation daemon\n"
      "usage: petctl --socket=PATH <command> [options]\n"
      "commands:\n"
      "  ping\n"
      "  register   --id=I --tags=N [--pop-seed=S]\n"
      "  unregister --id=I\n"
      "  estimate   --id=I [--seed=S] [--eps=E] [--delta=D]\n"
      "             [--deadline-slots=N] [--vanilla]\n"
      "  monitor\n"
      "  top        [--interval=SECONDS] [--once] [--sort=KEY]\n"
      "             KEY: id|reqs|rate|p99|degraded|shed|cache|shard\n"
      "             (default id; descending except id/shard)\n"
      "  trace      REQUEST_ID   (hex 0x... or decimal; from error details\n"
      "             or a flight dump; each record shows its shard and\n"
      "             whether the result cache served it)\n"
      "  soak       [--seconds=T] [--populations=N] [--tags=N] [--seed=S]\n"
      "             [--chaos-loss=P] [--chaos-noise=P] [--chaos-close=P]\n"
      "             [--deadline-slots=N]\n");
  return 2;
}

/// Minimal --key=value map (mirrors petsim's idiom).
struct Args {
  std::string socket_path;
  std::string command;
  std::string operand;  ///< positional argument after the command (trace)
  std::vector<std::pair<std::string, std::string>> kv;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return v;
    }
    return fallback;
  }
  /// --key as a number of the fallback's type; a value that is not
  /// entirely a number throws std::invalid_argument.
  template <typename T>
  [[nodiscard]] T get(const std::string& key, T fallback) const {
    const std::string v = get(key, std::string());
    return v.empty() ? fallback
                     : parse_number<T>(v, "--" + key + "=" + v);
  }
};

/// Flags each command reads.  Returns nullptr for an unknown command.
const std::vector<std::string>* command_flags(const std::string& command) {
  static const std::map<std::string, std::vector<std::string>> kFlags = {
      {"ping", {}}, {"monitor", {}}, {"trace", {}},
      {"register", {"id", "tags", "pop-seed"}},
      {"unregister", {"id"}},
      {"estimate", {"id", "seed", "eps", "delta", "deadline-slots", "vanilla"}},
      {"top", {"interval", "once", "sort"}},
      {"soak", {"seconds", "populations", "tags", "seed", "deadline-slots",
                "chaos-loss", "chaos-noise", "chaos-close"}},
  };
  const auto it = kFlags.find(command);
  return it == kFlags.end() ? nullptr : &it->second;
}

class Connection {
 public:
  ~Connection() { close(); }

  [[nodiscard]] bool open(const std::string& path) {
    close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      close();
      return false;
    }
    decoder_ = svc::Decoder{};
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  [[nodiscard]] bool send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  /// Read until one frame decodes or `timeout_ms` elapses.  Decode errors
  /// on the return path are skipped (the soak's chaos only mangles the
  /// forward path, but a defensive client never trusts a byte stream).
  [[nodiscard]] std::optional<svc::Frame> recv_frame(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    svc::Frame frame;
    for (;;) {
      for (;;) {
        const svc::DecodeStatus status = decoder_.next(frame);
        if (status == svc::DecodeStatus::kFrame) return frame;
        if (status == svc::DecodeStatus::kNeedMoreData) break;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return std::nullopt;
      std::uint8_t buffer[4096];
      const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
      if (n == 0) return std::nullopt;
      if (n < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      decoder_.feed(buffer, static_cast<std::size_t>(n));
    }
  }

  /// Strict request-response round trip.
  [[nodiscard]] std::optional<svc::Frame> call(const svc::Frame& request,
                                               int timeout_ms = 30000) {
    if (!send_bytes(svc::encode_frame(request))) return std::nullopt;
    return recv_frame(timeout_ms);
  }

 private:
  int fd_ = -1;
  svc::Decoder decoder_;
};

/// Connects `conn` to --socket, or says why it cannot.  Each command reads
/// its flags first, so a bad value exits 2 before anything is sent.
[[nodiscard]] bool open_socket(Connection& conn, const Args& args) {
  if (conn.open(args.socket_path)) return true;
  std::fprintf(stderr, "petctl: cannot connect to %s\n",
               args.socket_path.c_str());
  return false;
}

void print_status(const svc::Frame& response) {
  const auto status = static_cast<svc::StatusCode>(response.status);
  std::printf("status: %s\n", std::string(svc::to_string(status)).c_str());
  if (status != svc::StatusCode::kOk && !response.payload.empty()) {
    std::printf("detail: %s\n", svc::error_detail(response).c_str());
  }
}

int cmd_ping(Connection& conn, const Args& args) {
  if (!open_socket(conn, args)) return 1;
  const auto response = conn.call(svc::make_request(svc::CommandId::kPing));
  if (!response) {
    std::fprintf(stderr, "petctl: no response to ping\n");
    return 1;
  }
  print_status(*response);
  return response->status == 0 ? 0 : 1;
}

int cmd_register(Connection& conn, const Args& args) {
  svc::RegisterRequest request;
  request.population_id = args.get("id", std::uint64_t{0});
  request.tag_count = args.get("tags", std::uint64_t{10000});
  request.population_seed = args.get("pop-seed", std::uint64_t{7});
  if (!open_socket(conn, args)) return 1;
  const auto response = conn.call(svc::make_request(
      svc::CommandId::kRegister, svc::encode(request)));
  if (!response) {
    std::fprintf(stderr, "petctl: no response to register\n");
    return 1;
  }
  print_status(*response);
  if (response->status != 0) return 1;
  const auto reply = svc::parse_register_reply(response->payload);
  if (!reply) return 1;
  std::printf("registered population %llu with %llu tags\n",
              static_cast<unsigned long long>(reply->population_id),
              static_cast<unsigned long long>(reply->tag_count));
  return 0;
}

int cmd_unregister(Connection& conn, const Args& args) {
  svc::UnregisterRequest request;
  request.population_id = args.get("id", std::uint64_t{0});
  if (!open_socket(conn, args)) return 1;
  const auto response = conn.call(svc::make_request(
      svc::CommandId::kUnregister, svc::encode(request)));
  if (!response) {
    std::fprintf(stderr, "petctl: no response to unregister\n");
    return 1;
  }
  print_status(*response);
  return response->status == 0 ? 0 : 1;
}

int cmd_estimate(Connection& conn, const Args& args) {
  svc::EstimateRequest request;
  request.population_id = args.get("id", std::uint64_t{0});
  request.seed = args.get("seed", std::uint64_t{1});
  request.epsilon = args.get("eps", 0.1);
  request.delta = args.get("delta", 0.05);
  request.deadline_slots = args.get("deadline-slots", std::uint64_t{0});
  request.robust = args.get("vanilla", std::string()).empty() ? 1 : 0;
  if (!open_socket(conn, args)) return 1;
  const auto response = conn.call(svc::make_request(
      svc::CommandId::kEstimate, svc::encode(request)));
  if (!response) {
    std::fprintf(stderr, "petctl: no response to estimate\n");
    return 1;
  }
  print_status(*response);
  if (response->status != 0) return 1;
  const auto reply = svc::parse_estimate_reply(response->payload);
  if (!reply) return 1;
  std::printf("n_hat     : %.1f  [%.1f, %.1f]\n", reply->n_hat, reply->ci_lo,
              reply->ci_hi);
  std::printf("rounds    : %llu of %llu planned (%llu slots)\n",
              static_cast<unsigned long long>(reply->rounds),
              static_cast<unsigned long long>(reply->planned_rounds),
              static_cast<unsigned long long>(reply->query_slots));
  std::printf("retries   : %u (%llu backoff slots)\n", reply->retries,
              static_cast<unsigned long long>(reply->backoff_slots));
  std::printf("degraded  : %s%s\n", reply->degraded != 0 ? "yes" : "no",
              reply->truncated != 0 ? " (deadline truncated rounds)" : "");
  return 0;
}

int cmd_monitor(Connection& conn, const Args& args) {
  if (!open_socket(conn, args)) return 1;
  const auto response = conn.call(svc::make_request(svc::CommandId::kMonitor));
  if (!response) {
    std::fprintf(stderr, "petctl: no response to monitor\n");
    return 1;
  }
  print_status(*response);
  if (response->status != 0) return 1;
  const auto reply = svc::parse_monitor_reply(response->payload);
  if (!reply) return 1;
  std::printf("populations     : %llu\n",
              static_cast<unsigned long long>(reply->populations));
  std::printf("inflight        : %llu\n",
              static_cast<unsigned long long>(reply->inflight));
  std::printf("accepted        : %llu\n",
              static_cast<unsigned long long>(reply->accepted));
  std::printf("completed       : %llu\n",
              static_cast<unsigned long long>(reply->completed));
  std::printf("shed            : %llu\n",
              static_cast<unsigned long long>(reply->shed));
  std::printf("degraded        : %llu\n",
              static_cast<unsigned long long>(reply->degraded));
  std::printf("deadline misses : %llu\n",
              static_cast<unsigned long long>(reply->deadline_misses));
  std::printf("retries         : %llu\n",
              static_cast<unsigned long long>(reply->retries));
  std::printf("malformed frames: %llu\n",
              static_cast<unsigned long long>(reply->malformed_frames));
  return 0;
}

// ---- kMetrics helpers (top / trace / soak summary) -----------------------

/// Numeric member lookup with a 0.0 default; jsonlite objects only.
double num_or(const obs::JsonValue* object, const char* key) {
  if (object == nullptr || !object->is_object()) return 0.0;
  const obs::JsonValue* value = object->find(key);
  return (value != nullptr && value->is_number()) ? value->number : 0.0;
}

/// Quantile label for a {"bounds":[...],"counts":[...]} latency histogram:
/// the upper slot bound of the bucket holding quantile q, ">B" for the
/// overflow bucket, "-" when the histogram is empty.
std::string latency_quantile(const obs::JsonValue* hist, double q) {
  if (hist == nullptr || !hist->is_object()) return "-";
  const obs::JsonValue* bounds = hist->find("bounds");
  const obs::JsonValue* counts = hist->find("counts");
  if (bounds == nullptr || counts == nullptr || !bounds->is_array() ||
      !counts->is_array()) {
    return "-";
  }
  double total = 0.0;
  for (const obs::JsonValue& c : counts->array) total += c.number;
  if (total <= 0.0) return "-";
  const double target = q * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts->array.size(); ++i) {
    seen += counts->array[i].number;
    if (seen >= target) {
      if (i < bounds->array.size()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", bounds->array[i].number);
        return buf;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), ">%.0f",
                    bounds->array.back().number);
      return buf;
    }
  }
  return "-";
}

/// One kMetrics round trip, parsed.  Returns nullopt on transport/parse
/// failure; `unsupported` is set when the daemon is a PET_OBS=OFF build.
std::optional<obs::JsonValue> fetch_metrics(Connection& conn,
                                            bool& unsupported) {
  unsupported = false;
  const auto response =
      conn.call(svc::make_request(svc::CommandId::kMetrics), 10000);
  if (!response) {
    std::fprintf(stderr, "petctl: no response to metrics\n");
    return std::nullopt;
  }
  if (static_cast<svc::StatusCode>(response->status) ==
      svc::StatusCode::kUnsupported) {
    unsupported = true;
    return std::nullopt;
  }
  if (response->status != 0) {
    print_status(*response);
    return std::nullopt;
  }
  try {
    return obs::parse_json(std::string(response->payload.begin(),
                                       response->payload.end()));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "petctl: metrics payload did not parse: %s\n",
                 error.what());
    return std::nullopt;
  }
}

/// Live per-population dashboard over kMetrics.  Renders req/s from the
/// delta between successive snapshots; p50/p99 come from the cumulative
/// slot-latency histograms (lifetime, not windowed — they are counters).
/// The shard column is computed client-side (svc::shard_of over the shard
/// count the kFull document reports), so it matches what the daemon routed
/// without a per-population wire field; cache% is the population's
/// cache-hit share of its requests.  shed% divides by requests + shed: a
/// shed estimate was refused at admission and never became a request.
int cmd_top(Connection& conn, const Args& args) {
  const double interval = args.get("interval", 2.0);
  const bool once = !args.get("once", std::string()).empty();
  const std::string sort_key = args.get("sort", std::string("id"));
  if (sort_key != "id" && sort_key != "reqs" && sort_key != "rate" &&
      sort_key != "p99" && sort_key != "degraded" && sort_key != "shed" &&
      sort_key != "cache" && sort_key != "shard") {
    std::fprintf(stderr, "petctl: unknown --sort key %s\n", sort_key.c_str());
    return 2;
  }
  if (!open_socket(conn, args)) return 1;

  std::map<std::string, double> prev_requests;
  auto prev_time = std::chrono::steady_clock::now();
  bool have_prev = false;
  for (;;) {
    bool unsupported = false;
    const auto root = fetch_metrics(conn, unsupported);
    if (unsupported) {
      std::fprintf(stderr,
                   "petctl: metrics export unavailable (PET_OBS=OFF build)\n");
      return 0;
    }
    if (!root) return 1;
    const auto now = std::chrono::steady_clock::now();
    const double dt =
        std::chrono::duration<double>(now - prev_time).count();

    const obs::JsonValue* service = root->find("service");
    const obs::JsonValue* totals =
        service != nullptr ? service->find("totals") : nullptr;
    const obs::JsonValue* pops =
        service != nullptr ? service->find("populations") : nullptr;
    const obs::JsonValue* connections =
        service != nullptr ? service->find("connections") : nullptr;
    const obs::JsonValue* cache =
        service != nullptr ? service->find("cache") : nullptr;
    const obs::JsonValue* shards =
        service != nullptr ? service->find("shards") : nullptr;
    if (totals == nullptr || pops == nullptr || !pops->is_object()) {
      std::fprintf(stderr, "petctl: metrics document has no service member\n");
      return 1;
    }
    const auto shard_count =
        static_cast<std::uint32_t>(num_or(shards, "count"));

    if (!once) std::printf("\x1b[2J\x1b[H");
    const double total_requests = num_or(totals, "requests");
    const double total_degraded = num_or(totals, "degraded");
    const double total_shed = num_or(totals, "shed");
    const double total_asked = total_requests + total_shed;
    const double cache_hits = num_or(cache, "hits");
    const double cache_lookups = cache_hits + num_or(cache, "misses");
    std::printf("petd top  populations %zu  requests %.0f  degraded %.1f%%  "
                "shed %.1f%%  resyncs %.0f\n",
                pops->object.size(), total_requests,
                total_requests > 0 ? 100.0 * total_degraded / total_requests
                                   : 0.0,
                total_asked > 0 ? 100.0 * total_shed / total_asked : 0.0,
                num_or(connections, "resyncs"));
    std::printf("shards %u  cache hit%% %.1f  entries %.0f  bytes %.0f  "
                "evictions %.0f\n",
                shard_count,
                cache_lookups > 0 ? 100.0 * cache_hits / cache_lookups : 0.0,
                num_or(cache, "entries"), num_or(cache, "bytes"),
                num_or(cache, "evictions"));

    struct Row {
      std::string id;
      double requests = 0.0;
      double rate = 0.0;
      std::string p50;
      std::string p99;
      double p99_num = 0.0;
      double degraded_pct = 0.0;
      double shed_pct = 0.0;
      double cache_pct = 0.0;
      std::uint32_t shard = 0;
    };
    std::vector<Row> rows;
    rows.reserve(pops->object.size());
    for (const auto& [id, stats] : pops->object) {
      Row row;
      row.id = id;
      row.requests = num_or(&stats, "requests");
      if (have_prev && dt > 0.0) {
        const auto it = prev_requests.find(id);
        const double before = it != prev_requests.end() ? it->second : 0.0;
        row.rate = (row.requests - before) / dt;
      }
      const double degraded = num_or(&stats, "degraded");
      const double shed = num_or(&stats, "shed");
      const double pop_hits = num_or(&stats, "cache_hits");
      const obs::JsonValue* hist = stats.find("latency_slots");
      row.p50 = latency_quantile(hist, 0.50);
      row.p99 = latency_quantile(hist, 0.99);
      row.p99_num = std::strtod(row.p99.c_str(),
                                nullptr);  // ">B" parses as 0; "-" too
      if (row.requests > 0) {
        row.degraded_pct = 100.0 * degraded / row.requests;
        row.cache_pct = 100.0 * pop_hits / row.requests;
      }
      if (row.requests + shed > 0) {
        row.shed_pct = 100.0 * shed / (row.requests + shed);
      }
      row.shard = svc::shard_of(
          std::strtoull(id.c_str(), nullptr, 10), shard_count);
      prev_requests[id] = row.requests;
      rows.push_back(std::move(row));
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [&sort_key](const Row& a, const Row& b) {
                       if (sort_key == "reqs") return a.requests > b.requests;
                       if (sort_key == "rate") return a.rate > b.rate;
                       if (sort_key == "p99") return a.p99_num > b.p99_num;
                       if (sort_key == "degraded") {
                         return a.degraded_pct > b.degraded_pct;
                       }
                       if (sort_key == "shed") return a.shed_pct > b.shed_pct;
                       if (sort_key == "cache") {
                         return a.cache_pct > b.cache_pct;
                       }
                       if (sort_key == "shard") return a.shard < b.shard;
                       return false;  // "id": keep the document's order
                     });

    std::printf("%-12s %5s %10s %8s %10s %10s %9s %7s %6s\n", "population",
                "shard", "reqs", "req/s", "p50(slot)", "p99(slot)",
                "degraded%", "shed%", "cache%");
    for (const Row& row : rows) {
      std::printf("%-12s %5u %10.0f %8.1f %10s %10s %8.1f%% %6.1f%% %5.1f%%\n",
                  row.id.c_str(), row.shard, row.requests, row.rate,
                  row.p50.c_str(), row.p99.c_str(), row.degraded_pct,
                  row.shed_pct, row.cache_pct);
    }
    prev_time = now;
    have_prev = true;
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}

/// Fetch one request's flight-recorder records (or all with id 0).
int cmd_trace(Connection& conn, const Args& args) {
  svc::FlightDumpRequest request;
  if (!args.operand.empty()) {
    // Decimal, or the 0x form format_request_id prints.
    const std::string_view id = args.operand;
    const bool hex = id.rfind("0x", 0) == 0 || id.rfind("0X", 0) == 0;
    request.request_id = parse_number<std::uint64_t>(
        hex ? id.substr(2) : id, "trace " + args.operand, hex ? 16 : 10);
  }
  if (!open_socket(conn, args)) return 1;
  const auto response = conn.call(svc::make_request(
      svc::CommandId::kFlightDump, svc::encode(request)));
  if (!response) {
    std::fprintf(stderr, "petctl: no response to flight-dump\n");
    return 1;
  }
  if (static_cast<svc::StatusCode>(response->status) ==
      svc::StatusCode::kUnsupported) {
    std::fprintf(stderr,
                 "petctl: flight recorder unavailable (PET_OBS=OFF build)\n");
    return 0;
  }
  print_status(*response);
  if (response->status != 0) return 1;
  const auto reply = svc::parse_flight_dump_reply(response->payload);
  if (!reply) {
    std::fprintf(stderr, "petctl: flight-dump reply did not parse\n");
    return 1;
  }
  if (reply->records.empty()) {
    std::printf("no flight records%s\n",
                request.request_id != 0 ? " for that request id" : "");
    return request.request_id != 0 ? 1 : 0;
  }
  for (const svc::RequestRecord& record : reply->records) {
    std::printf(
        "%s cmd=%s status=%s pop=%llu shard=%u cache=%s degrade=%s "
        "rounds=%llu/%llu retries=%u backoff=%llu query=%llu latency=%llu "
        "slots queue=%lluus handle=%lluus\n",
        svc::format_request_id(record.request_id).c_str(),
        std::string(svc::to_string(
            static_cast<svc::CommandId>(record.command))).c_str(),
        std::string(svc::to_string(
            static_cast<svc::StatusCode>(record.status))).c_str(),
        static_cast<unsigned long long>(record.population_id),
        static_cast<unsigned>(record.shard),
        record.cache_hit != 0 ? "hit" : "miss",
        svc::degrade_mask_to_string(record.degrade_mask).c_str(),
        static_cast<unsigned long long>(record.rounds),
        static_cast<unsigned long long>(record.planned_rounds),
        record.retries,
        static_cast<unsigned long long>(record.backoff_slots),
        static_cast<unsigned long long>(record.query_slots),
        static_cast<unsigned long long>(record.latency_slots),
        static_cast<unsigned long long>(record.queue_us),
        static_cast<unsigned long long>(record.handle_us));
  }
  return 0;
}

/// Chaos soak: estimate traffic through a seeded ChaosLink.  The ChaosLink
/// sits on the request path — drops, bit flips, and closes are exactly the
/// garbage a hostile or flaky client would send — so the server-side
/// decoder, error taxonomy, and per-connection cleanup all get exercised.
/// Liveness is asserted out-of-band on a clean second connection.
int cmd_soak(const Args& args) {
  const auto seconds = args.get("seconds", std::uint64_t{5});
  const auto populations = args.get("populations", std::uint64_t{8});
  const auto tags = args.get("tags", std::uint64_t{5000});
  const auto seed = args.get("seed", std::uint64_t{1});
  const auto deadline_slots = args.get("deadline-slots", std::uint64_t{400});

  sim::ChannelImpairments chaos_impairments;
  chaos_impairments.reply_loss_prob = args.get("chaos-loss", 0.1);
  chaos_impairments.false_busy_prob = args.get("chaos-noise", 0.1);
  chaos_impairments.seed = rng::derive_seed(seed, 0xc4a05ull);
  const double close_prob = args.get("chaos-close", 0.02);
  svc::ChaosLink chaos(chaos_impairments);
  rng::Xoshiro256ss close_rng(rng::derive_seed(seed, 0xc705eull));

  Connection chaos_conn;
  Connection clean_conn;
  if (!open_socket(chaos_conn, args) || !open_socket(clean_conn, args)) {
    return 1;
  }

  // Populations registered on the clean connection: setup must not be
  // subject to chaos.
  for (std::uint64_t id = 0; id < populations; ++id) {
    svc::RegisterRequest request;
    request.population_id = id;
    request.tag_count = tags;
    request.population_seed = rng::derive_seed(seed, id);
    const auto response = clean_conn.call(svc::make_request(
        svc::CommandId::kRegister, svc::encode(request)));
    if (!response || (response->status != 0 &&
                      static_cast<svc::StatusCode>(response->status) !=
                          svc::StatusCode::kAlreadyExists)) {
      std::fprintf(stderr, "petctl: soak setup failed registering %llu\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(seconds);
  std::uint64_t sent = 0, answered = 0, reconnects = 0, liveness_checks = 0;
  std::uint64_t request_seed = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!chaos_conn.connected() && !chaos_conn.open(args.socket_path)) {
      std::fprintf(stderr, "petctl: reconnect failed\n");
      return 1;
    }

    svc::EstimateRequest request;
    request.population_id = request_seed % populations;
    request.seed = rng::derive_seed(seed, 5000 + request_seed);
    request.deadline_slots = deadline_slots;
    ++request_seed;
    std::vector<std::uint8_t> wire =
        svc::encode_frame(svc::make_request(svc::CommandId::kEstimate,
                                            svc::encode(request)));

    // Client-side connection close, independent of the frame-level chaos.
    if (close_prob > 0.0 &&
        static_cast<double>(close_rng() >> 11) * 0x1.0p-53 < close_prob) {
      chaos_conn.close();
      ++reconnects;
      continue;
    }

    switch (chaos.apply(wire)) {
      case svc::ChaosLink::Action::kCloseLink:
        chaos_conn.close();
        ++reconnects;
        break;
      case svc::ChaosLink::Action::kDropFrame:
        break;  // frame vanishes; server sees silence
      case svc::ChaosLink::Action::kCorruptBit:
      case svc::ChaosLink::Action::kDeliver: {
        ++sent;
        if (!chaos_conn.send_bytes(wire)) {
          chaos_conn.close();
          ++reconnects;
          break;
        }
        // Drain whatever comes back quickly; corrupted frames may yield
        // several error frames (one per resync step) or none that matter.
        while (chaos_conn.recv_frame(20)) ++answered;
        break;
      }
    }

    // Liveness probe every 64 iterations: a clean ping must round-trip
    // within its timeout or the server has hung — the one hard failure.
    if ((request_seed & 63u) == 0) {
      ++liveness_checks;
      const auto pong =
          clean_conn.call(svc::make_request(svc::CommandId::kPing), 10000);
      if (!pong || pong->status != 0) {
        std::fprintf(stderr, "petctl: liveness ping failed mid-soak\n");
        return 1;
      }
    }
  }

  const auto monitor =
      clean_conn.call(svc::make_request(svc::CommandId::kMonitor), 10000);
  if (!monitor || monitor->status != 0) {
    std::fprintf(stderr, "petctl: monitor failed after soak\n");
    return 1;
  }
  const auto stats = svc::parse_monitor_reply(monitor->payload);
  if (!stats) {
    std::fprintf(stderr, "petctl: monitor reply did not parse\n");
    return 1;
  }
  std::printf("soak done: %llu frames sent, %llu responses, %llu reconnects,"
              " %llu liveness pings\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(reconnects),
              static_cast<unsigned long long>(liveness_checks));
  std::printf("chaos: %llu frames, %llu dropped, %llu corrupted, %llu closes\n",
              static_cast<unsigned long long>(chaos.frames()),
              static_cast<unsigned long long>(chaos.dropped()),
              static_cast<unsigned long long>(chaos.corrupted()),
              static_cast<unsigned long long>(chaos.closes()));
  std::printf("server: completed %llu, shed %llu, degraded %llu, "
              "malformed %llu\n",
              static_cast<unsigned long long>(stats->completed),
              static_cast<unsigned long long>(stats->shed),
              static_cast<unsigned long long>(stats->degraded),
              static_cast<unsigned long long>(stats->malformed_frames));

  // Surface the chaos run's retry/resync story from the kMetrics export.
  // A PET_OBS=OFF daemon answers UNSUPPORTED; the soak verdict is about
  // liveness, so that (and any metrics hiccup) never fails the run.
  bool unsupported = false;
  if (const auto metrics = fetch_metrics(clean_conn, unsupported)) {
    const obs::JsonValue* counters = metrics->find("counters");
    const obs::JsonValue* service = metrics->find("service");
    const obs::JsonValue* connections =
        service != nullptr ? service->find("connections") : nullptr;
    std::printf("link: %.0f resyncs, %.0f retry attempts, %.0f backoff "
                "slots, %.0f retry-exhausted\n",
                num_or(connections, "resyncs"),
                num_or(counters, "svc.retry.attempts"),
                num_or(counters, "svc.retry.backoff_slots"),
                num_or(counters, "svc.retry.exhausted"));
  } else if (unsupported) {
    std::printf("link: metrics export unavailable (PET_OBS=OFF build)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage();
    if (arg.rfind("--socket=", 0) == 0) {
      args.socket_path = std::string(arg.substr(9));
    } else if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        args.kv.emplace_back(std::string(arg.substr(2)), "1");
      } else {
        args.kv.emplace_back(std::string(arg.substr(2, eq - 2)),
                             std::string(arg.substr(eq + 1)));
      }
    } else if (args.command.empty()) {
      args.command = std::string(arg);
    } else if (args.operand.empty()) {
      args.operand = std::string(arg);
    } else {
      return usage();
    }
  }
  if (args.socket_path.empty() || args.command.empty()) return usage();
  const std::vector<std::string>* flags = command_flags(args.command);
  if (flags == nullptr) return usage();
  // A misspelt flag would otherwise run with the default it was meant to
  // override; checked before connecting, so no request is sent.
  for (const auto& [flag, value] : args.kv) {
    if (std::find(flags->begin(), flags->end(), flag) == flags->end()) {
      std::fprintf(stderr, "petctl: unknown flag --%s\n", flag.c_str());
      return 2;
    }
  }

  Connection conn;
  try {
    if (args.command == "soak") return cmd_soak(args);
    if (args.command == "ping") return cmd_ping(conn, args);
    if (args.command == "register") return cmd_register(conn, args);
    if (args.command == "unregister") return cmd_unregister(conn, args);
    if (args.command == "estimate") return cmd_estimate(conn, args);
    if (args.command == "monitor") return cmd_monitor(conn, args);
    if (args.command == "top") return cmd_top(conn, args);
    if (args.command == "trace") return cmd_trace(conn, args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "petctl: %s\n", e.what());
    return 2;
  }
  return usage();
}

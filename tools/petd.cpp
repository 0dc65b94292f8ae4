// petd: the PET estimation daemon (docs/service.md).
//
// Serves the pet::svc framed protocol over a Unix domain socket: register
// populations, answer estimate/monitor requests, shed overload with typed
// error frames, degrade gracefully under deadlines, and shut down cleanly
// on SIGINT/SIGTERM (drain in-flight requests, close connections, unlink
// the socket, exit 0).  Thread model: one acceptor + one thread per
// connection.  A connection's thread frames its requests and submits them
// to the service, which answers cache hits, registrations and control
// frames on that thread (a ready future); only estimates that must run the
// estimator go to the service's pet::runtime shard pools, so a slow
// estimate never blocks another connection's frames.  Each connection
// pipelines: it submits every frame of a read before awaiting any reply,
// and writes the replies in request order with one coalesced write.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <exception>
#include <cstdio>
#include <cstring>
#include <future>
#include <list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/parse_number.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "runtime/cancel.hpp"
#include "service/frame.hpp"
#include "service/messages.hpp"
#include "service/metrics_export.hpp"
#include "service/service.hpp"

namespace {

using namespace pet;

int usage() {
  std::fprintf(
      stderr,
      "petd -- PET estimation daemon\n"
      "usage: petd --socket=PATH [options]\n"
      "  --socket=PATH        Unix domain socket to listen on (required)\n"
      "  --threads=N          estimation pool width (default: hardware)\n"
      "  --shards=N           population-affine worker-pool shards; the\n"
      "                       inflight cap and threads split across them\n"
      "                       (default 0 = derived from the pool width)\n"
      "  --max-inflight=N     admission cap before shedding, split across\n"
      "                       shards into per-shard budgets (default 256)\n"
      "  --cache-entries=N    result-cache entry bound (default 1024;\n"
      "                       0 disables caching)\n"
      "  --cache-bytes=N      result-cache byte bound (default 4 MiB)\n"
      "  --tree-height=H      PET tree height for all populations (default 32)\n"
      "  --retry-attempts=N   attempts per estimate vs link faults (default 4)\n"
      "  --link-loss=P        transient link-fault probability per attempt\n"
      "  --link-outage=B,E    scripted link outage over attempts [B, E)\n"
      "  --fault-seed=S       link-fault stream seed (default 0x10551055)\n"
      "  --slot-us=U          wall-clock backstop: microseconds per slot\n"
      "                       (default 0 = slot budgets only, deterministic)\n"
      "  --flight-capacity=N  flight-recorder ring size (default 256)\n"
      "  --obs=LEVEL          metrics level: off|counters|full (default\n"
      "                       counters; at off only the service's own\n"
      "                       svc.* and pet.svc.* names count)\n"
      "  --prom-out=PATH      write Prometheus text exposition to PATH\n"
      "                       (atomically, on SIGUSR1 and on drain)\n"
      "  --quiet              suppress per-connection logging\n");
  return 2;
}

struct Options {
  std::string socket_path;
  std::string prom_out;
  svc::ServiceConfig service;
  bool quiet = false;
};

/// SIGUSR1 latch for the Prometheus dump; checked by the accept loop every
/// poll tick (a dump must not run inside the signal handler).
volatile std::sig_atomic_t g_prom_dump_requested = 0;

void on_sigusr1(int) { g_prom_dump_requested = 1; }

void dump_prometheus(const Options& options,
                     const svc::EstimationService& service) {
  if (options.prom_out.empty()) return;
  try {
    obs::write_prometheus_file_atomic(
        options.prom_out,
        obs::prometheus_text(svc::metrics_snapshot(service)));
    if (!options.quiet) {
      std::fprintf(stderr, "petd: wrote prometheus exposition to %s\n",
                   options.prom_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "petd: prometheus dump failed: %s\n", e.what());
  }
}

/// Parses `arg` into `out` when it starts with `prefix`.
template <typename T>
bool parse_flag(std::string_view arg, std::string_view prefix, T& out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  out = parse_number<T>(arg.substr(prefix.size()), arg);
  return true;
}

int parse(int argc, char** argv, Options& options) {
  svc::ServiceConfig& config = options.service;
  sim::ChannelImpairments& faults = config.link_faults;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage();
    if (arg.rfind("--socket=", 0) == 0) {
      options.socket_path = std::string(arg.substr(9));
    } else if (parse_flag(arg, "--threads=", config.worker_threads) ||
               parse_flag(arg, "--shards=", config.shards) ||
               parse_flag(arg, "--max-inflight=", config.max_inflight) ||
               parse_flag(arg, "--cache-entries=", config.cache_entries) ||
               parse_flag(arg, "--cache-bytes=", config.cache_bytes) ||
               parse_flag(arg, "--tree-height=", config.registry.tree_height) ||
               parse_flag(arg, "--retry-attempts=",
                          config.retry.max_attempts) ||
               parse_flag(arg, "--link-loss=", faults.reply_loss_prob) ||
               parse_flag(arg, "--fault-seed=", faults.seed) ||
               parse_flag(arg, "--slot-us=", config.slot_us) ||
               parse_flag(arg, "--flight-capacity=", config.flight_capacity)) {
      // parse_flag stored the value.
    } else if (arg.rfind("--link-outage=", 0) == 0) {
      const std::string_view spec = arg.substr(14);
      const std::size_t comma = spec.find(',');
      if (comma == std::string_view::npos) return usage();
      sim::ReaderOutage outage;
      outage.begin_slot =
          parse_number<std::uint64_t>(spec.substr(0, comma), arg);
      const auto end =
          parse_number<std::uint64_t>(spec.substr(comma + 1), arg);
      outage.duration_slots = end > outage.begin_slot ? end - outage.begin_slot
                                                      : 0;
      faults.script.outages.push_back(outage);
    } else if (arg.rfind("--obs=", 0) == 0) {
      obs::set_level(obs::parse_level(arg.substr(6)));
    } else if (arg.rfind("--prom-out=", 0) == 0) {
      options.prom_out = std::string(arg.substr(11));
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      std::fprintf(stderr, "petd: unknown argument %s\n", argv[i]);
      return usage();
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "petd: --socket is required\n");
    return usage();
  }
  return 0;
}

/// Frames one connection may have submitted but not yet answered.  Deep
/// enough for a depth-8 pipelining client, and far below a shard's default
/// admission budget (256 / 2 shards), so one connection cannot starve the
/// others' admission.
constexpr std::size_t kMaxInflightPerConnection = 16;

/// How long a blocked reply write waits for the peer to read before it
/// rechecks the shutdown latch (the same tick as the read-side poll).
constexpr int kPollTickMs = 200;

/// True for the commands a session may run concurrently with their
/// neighbours: an estimate's or a ping's reply does not depend on which of
/// the connection's other frames ran first (a cache hit is byte-identical
/// to the miss).  Every other command (register/unregister write the
/// registry, monitor/metrics/flight dump snapshot counters) is a sequence
/// point: it runs only after every earlier frame has been answered, and
/// later frames wait for it, so a pipelining client gets exactly the
/// replies of one-at-a-time service.
[[nodiscard]] bool pipelinable(std::uint16_t command) noexcept {
  return command == static_cast<std::uint16_t>(svc::CommandId::kEstimate) ||
         command == static_cast<std::uint16_t>(svc::CommandId::kPing);
}

[[nodiscard]] std::future<svc::Frame> ready_reply(svc::Frame frame) {
  std::promise<svc::Frame> promise;
  promise.set_value(std::move(frame));
  return promise.get_future();
}

/// Per-connection pipelined session.  Every complete frame of a read is
/// decoded and submitted before any reply is awaited; replies are appended
/// in request order to one reused output buffer and leave in a single
/// write.  Before blocking on a reply that is not ready yet, the session
/// flushes what is already encoded, so a slow estimate never holds back
/// the replies ahead of it.  Decode-level garbage gets a typed
/// MALFORMED_FRAME reply (command 0) in its position and the decoder
/// resyncs — a corrupt frame costs one frame, never the connection.
class Session {
 public:
  Session(int fd, svc::EstimationService& service)
      : fd_(fd), service_(service) {
    pending_.reserve(kMaxInflightPerConnection);
  }

  void run() {
    std::uint8_t buffer[4096];
    for (;;) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kPollTickMs);
      if (runtime::shutdown_requested()) return;
      if (ready < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (ready == 0) continue;
      const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
      if (n == 0) return;  // peer closed
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        return;
      }
      decoder_.feed(buffer, static_cast<std::size_t>(n));
      service_.note_bytes_received(static_cast<std::size_t>(n));
      if (!serve_buffered()) return;
    }
  }

 private:
  /// Submit every frame the decoder holds (sequence points alone), then
  /// answer them all.  False when the peer is gone.
  bool serve_buffered() {
    svc::Frame frame;
    for (;;) {
      const svc::DecodeStatus status = decoder_.next(frame);
      if (status == svc::DecodeStatus::kNeedMoreData) break;
      if (status != svc::DecodeStatus::kFrame) {
        service_.note_malformed_frame();
        pending_.push_back(ready_reply(svc::make_error(
            static_cast<svc::CommandId>(0),
            static_cast<std::uint16_t>(svc::StatusCode::kMalformedFrame),
            svc::to_string(status))));
      } else {
        service_.note_frame_received();
        const bool alone = !pipelinable(frame.command);
        if (alone && !answer_pending()) return false;
        pending_.push_back(service_.submit(std::move(frame)));
        if (alone && !answer_pending()) return false;
      }
      if (pending_.size() >= kMaxInflightPerConnection && !answer_pending()) {
        return false;
      }
    }
    return answer_pending();
  }

  /// Encode every pending reply in request order, flushing before each
  /// wait, then write the rest.
  bool answer_pending() {
    for (std::future<svc::Frame>& reply : pending_) {
      if (reply.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready &&
          !flush()) {
        return false;
      }
      const std::size_t before = out_.size();
      svc::encode_frame_into(out_, reply.get());
      frame_sizes_.push_back(out_.size() - before);
    }
    pending_.clear();
    return flush();
  }

  /// Write the output buffer without blocking indefinitely: on a full
  /// socket wait for POLLOUT a tick at a time, and give up once shutdown
  /// is requested so a client that stopped reading cannot hang the drain.
  /// Each frame is counted once all its bytes are written.
  bool flush() {
    std::size_t written = 0;
    while (written < out_.size()) {
      const ssize_t n =
          ::write(fd_, out_.data() + written, out_.size() - written);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          !runtime::shutdown_requested()) {
        pollfd pfd{fd_, POLLOUT, 0};
        (void)::poll(&pfd, 1, kPollTickMs);
        continue;
      }
      break;  // peer gone (EPIPE/ECONNRESET), dead fd, or draining
    }
    std::size_t counted = 0;
    for (const std::size_t size : frame_sizes_) {
      if (counted + size > written) break;
      counted += size;
      service_.note_frame_sent(size);
    }
    const bool complete = written == out_.size();
    out_.clear();
    frame_sizes_.clear();
    return complete;
  }

  int fd_;
  svc::EstimationService& service_;
  svc::Decoder decoder_;
  std::vector<std::future<svc::Frame>> pending_;  ///< replies, request order
  std::vector<std::uint8_t> out_;                 ///< encoded, not yet written
  std::vector<std::size_t> frame_sizes_;          ///< frames in out_, in order
};

void serve_connection(int fd, svc::EstimationService& service, bool quiet) {
  service.note_connection_opened();
  // Non-blocking, so a reply write into a full socket can wait in poll()
  // and still notice the shutdown latch.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  try {
    Session(fd, service).run();
  } catch (const std::exception& e) {
    // A session must never take the daemon down: drop just this peer.
    std::fprintf(stderr, "petd: session ended: %s\n", e.what());
  }
  ::close(fd);
  service.note_connection_closed();
  if (!quiet) std::fprintf(stderr, "petd: connection closed\n");
}

/// A connection's thread plus the flag it raises on exit, so the accept
/// loop can join finished sessions instead of keeping them until shutdown.
struct SessionThread {
  std::atomic<bool> done{false};
  std::thread thread;
};

void reap_finished(std::list<SessionThread>& sessions) {
  for (auto it = sessions.begin(); it != sessions.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = sessions.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The service's own names count at any level, but the channel and
  // estimator counters need counters on, so that is the default; an
  // explicit --obs=off during parse overrides this.
  obs::set_level(obs::Level::kCounters);
  Options options;
  // The daemon defaults to caching on — identical repeated requests are the
  // common monitoring pattern; libraries/tests opt in explicitly instead.
  options.service.cache_entries = 1024;
  // The service is built before the socket exists, so a configuration its
  // checks refuse leaves no socket file behind.
  std::optional<svc::EstimationService> built;
  try {
    if (const int rc = parse(argc, argv, options); rc != 0) return rc;
    built.emplace(options.service);
  } catch (const std::logic_error& e) {
    // A malformed flag value (std::invalid_argument) or a value the
    // service's checks reject (PreconditionError).
    std::fprintf(stderr, "petd: %s\n", e.what());
    return 2;
  }
  svc::EstimationService& service = *built;

  runtime::install_shutdown_handlers();
  // Writes to half-closed sockets must surface as EPIPE, not kill petd.
  ::signal(SIGPIPE, SIG_IGN);
  // SIGUSR1 requests a Prometheus exposition dump at the next accept tick.
  std::signal(SIGUSR1, on_sigusr1);

  if (options.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "petd: socket path too long\n");
    return 2;
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("petd: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    std::perror("petd: bind/listen");
    ::close(listen_fd);
    return 1;
  }

  if (!options.quiet) {
    std::fprintf(stderr,
                 "petd: listening on %s (%u workers, %u shards, cap %zu, "
                 "cache %zu entries)\n",
                 options.socket_path.c_str(),
                 options.service.resolved_worker_threads(),
                 service.shard_count(), options.service.max_inflight,
                 options.service.cache_entries);
  }

  std::list<SessionThread> sessions;
  while (!runtime::shutdown_requested()) {
    if (g_prom_dump_requested) {
      g_prom_dump_requested = 0;
      dump_prometheus(options, service);
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    // Join finished sessions before starting another, so its stack is
    // reused rather than a fresh one mapped beside the unjoined one.
    reap_finished(sessions);
    if (ready <= 0) continue;  // timeout, EINTR, or spurious wake: recheck
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    SessionThread& session = sessions.emplace_back();
    session.thread = std::thread([fd, &service, &session,
                                  quiet = options.quiet] {
      serve_connection(fd, service, quiet);
      session.done.store(true, std::memory_order_release);
    });
  }

  // Graceful drain: refuse new work, let connection loops notice the latch
  // (they poll every 200 ms), join everything, remove the socket.
  if (!options.quiet) std::fprintf(stderr, "petd: draining\n");
  service.begin_shutdown();
  ::close(listen_fd);
  for (SessionThread& session : sessions) session.thread.join();
  ::unlink(options.socket_path.c_str());
  dump_prometheus(options, service);  // the drained totals
  if (!options.quiet) {
    const svc::MonitorReply stats = service.stats();
    std::fprintf(stderr,
                 "petd: clean shutdown (accepted %llu, completed %llu, "
                 "shed %llu, degraded %llu)\n",
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.degraded));
  }
  return 0;
}

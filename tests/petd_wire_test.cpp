// End-to-end tests of the petd daemon over its Unix socket (docs/service.md).
//
// Each test spawns the built petd binary (PETD_PATH, set by CMake) on a
// private socket and talks to it as a client would:
//   * PetdWire.PipelinedRepliesMatchInProcessService: depth-8 bursts of
//     register, cold and repeated (cache-hit) estimates, pings and monitors
//     with corrupt frames interleaved; every reply arrives in request order
//     and equals, byte for byte, the reply of an in-process
//     EstimationService with the same ServiceConfig, and kMetrics'
//     frames_tx / bytes_tx equal what the client received;
//   * PetdWire.ConcurrentPipelinedConnections: four connections pipelining
//     at once against disjoint populations, each stream byte-identical;
//   * PetdWire.FinishedSessionsAreReaped: connect/close cycles must not
//     grow petd's address space (finished session threads are joined);
//   * PetdWire.DrainDoesNotHangOnClientThatStopsReading: SIGTERM while a
//     client has stopped reading still exits 0 promptly;
//   * PetdWire.TopShedShareCountsRefusedEstimates: the built petctl's `top`
//     shows a population's shed% as shed / (requests + shed).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/jsonlite.hpp"
#include "rng/prng.hpp"
#include "service/errors.hpp"
#include "service/frame.hpp"
#include "service/messages.hpp"
#include "service/service.hpp"

#ifndef PETD_PATH
#error "PETD_PATH must name the petd binary under test"
#endif
#ifndef PETCTL_PATH
#error "PETCTL_PATH must name the petctl binary under test"
#endif

namespace {

using namespace pet;
using Clock = std::chrono::steady_clock;
using Bytes = std::vector<std::uint8_t>;

/// Generous: sanitizer builds run estimates several times slower.
constexpr auto kReplyTimeout = std::chrono::seconds(120);
constexpr unsigned kDepth = 8;
constexpr unsigned kWorkers = 4;
constexpr std::size_t kCacheEntries = 1024;  // petd's default

/// The ServiceConfig petd runs with under kPetdFlags.
[[nodiscard]] svc::ServiceConfig daemon_config() {
  svc::ServiceConfig config;
  config.worker_threads = kWorkers;
  config.cache_entries = kCacheEntries;
  return config;
}

const std::vector<std::string> kPetdFlags = {"--threads=4", "--quiet"};

/// /proc/<pid>/status field in its native unit (kB for Vm*), 0 if absent.
[[nodiscard]] std::uint64_t proc_status(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

[[nodiscard]] int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One petd child on a private socket; SIGKILLed on destruction if still
/// running.
class Petd {
 public:
  explicit Petd(const std::vector<std::string>& flags = kPetdFlags) {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern =
        std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
        "/petd-wire-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed: " << std::strerror(errno);
      return;
    }
    dir_ = pattern;
    socket_ = dir_ + "/petd.sock";

    std::vector<std::string> args{PETD_PATH, "--socket=" + socket_};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    if (pid_ < 0) {
      ADD_FAILURE() << "fork failed";
      return;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      const int fd = connect_unix(socket_);
      if (fd >= 0) {
        // A ping answered means the service and its workers are up; once
        // this probe's session has exited, petd is idle.
        const bool answered = answers_ping(fd, deadline);
        const std::uint64_t busy = proc_status(pid_, "Threads");
        ::close(fd);
        if (!answered) ADD_FAILURE() << "petd did not answer a ping";
        while (proc_status(pid_, "Threads") >= busy &&
               Clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        idle_threads_ = proc_status(pid_, "Threads");
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        ADD_FAILURE() << "petd exited during start-up";
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "petd never accepted on " << socket_;
  }

  ~Petd() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::unlink(socket_.c_str());
    ::rmdir(dir_.c_str());
  }

  Petd(const Petd&) = delete;
  Petd& operator=(const Petd&) = delete;

  [[nodiscard]] bool running() const { return pid_ > 0; }
  /// Threads of the idle daemon (acceptor + workers, no sessions).
  [[nodiscard]] std::uint64_t idle_threads() const { return idle_threads_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  [[nodiscard]] int connect() const { return connect_unix(socket_); }

  /// SIGTERM, then wait up to `budget`.  Returns the exit code, or -1 when
  /// petd had to be killed (or did not exit normally).
  int terminate(std::chrono::milliseconds budget) {
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + budget;
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (reaped != pid_) return -1;  // the destructor kills it
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  [[nodiscard]] static bool answers_ping(int fd, Clock::time_point deadline) {
    const Bytes ping =
        svc::encode_frame(svc::make_request(svc::CommandId::kPing));
    if (::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(ping.size())) {
      return false;
    }
    std::size_t got = 0;  // a ping reply is as long as the request
    std::uint8_t buffer[64];
    while (got < ping.size() && Clock::now() < deadline) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return got == ping.size();
  }

  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
  std::uint64_t idle_threads_ = 0;
};

/// Blocking client connection that keeps the raw reply stream.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool send(const Bytes& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EINTR) {
        return false;
      }
    }
    return true;
  }

  /// The next `size` reply bytes (fewer only on timeout or EOF).
  [[nodiscard]] Bytes receive(std::size_t size) {
    const auto deadline = Clock::now() + kReplyTimeout;
    std::uint8_t buffer[65536];
    while (stash_.size() < size && Clock::now() < deadline) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
      if (n == 0) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      stash_.insert(stash_.end(), buffer, buffer + n);
    }
    const auto end =
        stash_.begin() + static_cast<std::ptrdiff_t>(std::min(size, stash_.size()));
    Bytes out(stash_.begin(), end);
    stash_.erase(stash_.begin(), end);
    bytes_received += out.size();
    return out;
  }

  /// The raw bytes of the next reply frame, sized by its length field.
  [[nodiscard]] Bytes receive_frame_bytes() {
    Bytes bytes = receive(svc::kHeaderSize);
    if (bytes.size() != svc::kHeaderSize) return bytes;
    const std::uint32_t len = static_cast<std::uint32_t>(bytes[7]) |
                              (static_cast<std::uint32_t>(bytes[8]) << 8) |
                              (static_cast<std::uint32_t>(bytes[9]) << 16) |
                              (static_cast<std::uint32_t>(bytes[10]) << 24);
    const Bytes rest = receive(std::size_t{len} + 1);
    bytes.insert(bytes.end(), rest.begin(), rest.end());
    return bytes;
  }

  [[nodiscard]] svc::Frame receive_frame() {
    svc::Decoder decoder;
    decoder.feed(receive_frame_bytes());
    svc::Frame frame;
    EXPECT_EQ(decoder.next(frame), svc::DecodeStatus::kFrame);
    return frame;
  }

  [[nodiscard]] int fd() const { return fd_; }

  std::uint64_t bytes_received = 0;

 private:
  int fd_;
  Bytes stash_;  ///< read but not yet returned
};

// --- request script ----------------------------------------------------------

/// One client-side request: a frame, or a deliberately corrupt one (valid
/// header, wrong payload LRC: the decoder drops it whole, so it costs
/// exactly one MALFORMED_FRAME reply however reads split it).
struct Item {
  svc::Frame frame;
  bool corrupt = false;
};

[[nodiscard]] Bytes wire_of(const Item& item) {
  Bytes bytes = svc::encode_frame(item.frame);
  if (item.corrupt) bytes.back() ^= 0x5A;
  return bytes;
}

[[nodiscard]] svc::Frame register_frame(std::uint64_t id, std::uint64_t tags) {
  svc::RegisterRequest request;
  request.population_id = id;
  request.tag_count = tags;
  request.population_seed = rng::derive_seed(0x5EED, id);
  return svc::make_request(svc::CommandId::kRegister, svc::encode(request));
}

[[nodiscard]] svc::Frame unregister_frame(std::uint64_t id) {
  svc::UnregisterRequest request;
  request.population_id = id;
  return svc::make_request(svc::CommandId::kUnregister, svc::encode(request));
}

[[nodiscard]] svc::Frame estimate_frame(std::uint64_t id, std::uint64_t seed,
                                        std::uint64_t deadline_slots = 0) {
  svc::EstimateRequest request;
  request.population_id = id;
  request.seed = seed;
  request.deadline_slots = deadline_slots;
  request.robust = static_cast<std::uint8_t>(seed & 1);
  return svc::make_request(svc::CommandId::kEstimate, svc::encode(request));
}

/// Depth-8 bursts over populations [base + 1, base + populations]: the
/// first burst registers them, later ones mix cold estimates, repeats of
/// the previous burst's seeds (cache hits), pings, monitors, corrupt
/// frames, and register/estimate/unregister of a short-lived population
/// (which pipelining must keep in order).
[[nodiscard]] std::vector<std::vector<Item>> burst_script(
    std::uint64_t base, std::uint64_t populations, unsigned bursts,
    bool monitors) {
  std::vector<std::vector<Item>> script;
  std::vector<Item> registers;
  for (std::uint64_t id = base + 1; id <= base + populations; ++id) {
    registers.push_back({register_frame(id, 1500 + 100 * (id % 4)), false});
  }
  script.push_back(registers);

  const auto pop = [&](std::uint64_t k) { return base + 1 + k % populations; };
  const auto cold = [&](std::uint64_t b, std::uint64_t k) {
    return estimate_frame(pop(b + k), rng::derive_seed(base ^ 0xC01D, b * 8 + k));
  };
  for (unsigned b = 1; b <= bursts; ++b) {
    std::vector<Item> burst;
    burst.push_back({cold(b, 0), false});
    burst.push_back({b > 1 ? cold(b - 1, 0) : cold(b, 0), false});  // repeat
    burst.push_back({svc::make_request(svc::CommandId::kPing), false});
    burst.push_back({cold(b, 3), b % 2 == 0});  // every other burst: corrupt
    const std::uint64_t transient = base + populations + b;
    switch (b % 3) {
      case 0:
        burst.push_back({register_frame(transient, 800), false});
        burst.push_back({estimate_frame(transient, b), false});
        burst.push_back({unregister_frame(transient), false});
        break;
      case 1:
        burst.push_back({estimate_frame(pop(b), b * 31, /*deadline=*/200),
                         false});
        burst.push_back({monitors ? svc::make_request(svc::CommandId::kMonitor)
                                  : svc::make_request(svc::CommandId::kPing),
                         false});
        burst.push_back({estimate_frame(transient, 1), false});  // NOT_FOUND
        break;
      default:
        burst.push_back({cold(b, 4), false});
        burst.push_back({b > 1 ? cold(b - 1, 3) : cold(b, 5), false});
        burst.push_back({cold(b, 6), b % 4 == 0});
        break;
    }
    burst.push_back({monitors ? svc::make_request(svc::CommandId::kMonitor)
                              : cold(b, 7),
                     false});
    script.push_back(std::move(burst));
  }
  return script;
}

/// The reply bytes the in-process service gives for `item`, fed in script
/// order.  submit() rather than handle() so admission is counted exactly
/// as petd counts it (kMonitor reports accepted and inflight).
[[nodiscard]] Bytes reference_reply(svc::EstimationService& service,
                                    const Item& item) {
  if (item.corrupt) {
    service.note_malformed_frame();
    return svc::encode_frame(svc::make_error(
        static_cast<svc::CommandId>(0),
        static_cast<std::uint16_t>(svc::StatusCode::kMalformedFrame),
        svc::to_string(svc::DecodeStatus::kBadPayloadLrc)));
  }
  return svc::encode_frame(service.submit(item.frame).get());
}

/// Send each burst as one write (at most kDepth frames in flight), read
/// its replies, and compare them with the reference byte for byte.
void run_script(Client& client, svc::EstimationService& reference,
                const std::vector<std::vector<Item>>& script,
                const std::string& label) {
  for (std::size_t b = 0; b < script.size(); ++b) {
    const std::vector<Item>& burst = script[b];
    ASSERT_LE(burst.size(), kDepth);
    Bytes request;
    std::vector<Bytes> expected;
    for (const Item& item : burst) {
      const Bytes wire = wire_of(item);
      request.insert(request.end(), wire.begin(), wire.end());
      expected.push_back(reference_reply(reference, item));
    }
    ASSERT_TRUE(client.send(request)) << label << " burst " << b;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(client.receive_frame_bytes(), expected[i])
          << label << " burst " << b << " frame " << i
          << ": reply differs from the in-process service's";
    }
  }
}

[[nodiscard]] std::uint64_t frame_count(
    const std::vector<std::vector<Item>>& script) {
  std::uint64_t n = 0;
  for (const auto& burst : script) n += burst.size();
  return n;
}

[[nodiscard]] double json_number(const obs::JsonValue* object,
                                 const char* key) {
  const obs::JsonValue* value =
      object == nullptr ? nullptr : object->find(key);
  return value != nullptr && value->is_number() ? value->number : -1.0;
}

/// Runs the built petctl with `args` and returns what it printed on stdout;
/// `code` gets its exit status (-1 when it did not exit normally).
[[nodiscard]] std::string run_petctl(std::vector<std::string> args,
                                     int& code) {
  code = -1;
  args.insert(args.begin(), PETCTL_PATH);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int out[2];
  if (::pipe(out) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  std::string text;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(out[0], buffer, sizeof(buffer));
    if (n > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(out[0]);
  int status = 0;
  if (pid > 0 && ::waitpid(pid, &status, 0) == pid && WIFEXITED(status)) {
    code = WEXITSTATUS(status);
  }
  return text;
}

// --- tests -------------------------------------------------------------------

TEST(PetdWire, PipelinedRepliesMatchInProcessService) {
  Petd petd;
  ASSERT_TRUE(petd.running());
  Client client(petd.connect());
  ASSERT_GE(client.fd(), 0);
  svc::EstimationService reference(daemon_config());
  // The reference sees petd's start-up probe too, so kMonitor's counters
  // agree.
  const std::size_t probe_bytes =
      reference_reply(reference,
                      {svc::make_request(svc::CommandId::kPing), false})
          .size();

  const auto script = burst_script(0, 8, 12, /*monitors=*/true);
  run_script(client, reference, script, "single connection");
  if (HasFatalFailure()) return;

  // Byte accounting: every reply counted once its bytes were written, so
  // the daemon's totals equal what the probe and this client received.
  ASSERT_TRUE(client.send(svc::encode_frame(svc::make_request(
      svc::CommandId::kMetrics, svc::encode(svc::MetricsRequest{})))));
  const std::uint64_t received_before_metrics = client.bytes_received;
  const svc::Frame metrics = client.receive_frame();
  if (metrics.status ==
      static_cast<std::uint16_t>(svc::StatusCode::kUnsupported)) {
    GTEST_SKIP() << "kMetrics compiled out (PET_OBS=OFF)";
  }
  ASSERT_EQ(metrics.status, static_cast<std::uint16_t>(svc::StatusCode::kOk));
  const obs::JsonValue doc = obs::parse_json(
      std::string(metrics.payload.begin(), metrics.payload.end()));
  const obs::JsonValue* service = doc.find("service");
  ASSERT_NE(service, nullptr);
  const obs::JsonValue* conn = service->find("connections");
  EXPECT_EQ(json_number(conn, "frames_tx"),
            static_cast<double>(1 + frame_count(script)));
  EXPECT_EQ(json_number(conn, "bytes_tx"),
            static_cast<double>(probe_bytes + received_before_metrics));
  // The repeated seeds were served from the cache.
  EXPECT_GT(json_number(service->find("cache"), "hits"), 0.0);
}

TEST(PetdWire, ConcurrentPipelinedConnections) {
  constexpr unsigned kConnections = 4;
  Petd petd;
  ASSERT_TRUE(petd.running());

  // Disjoint populations per connection, and no monitors (their counters
  // see the other connections), so every stream is deterministic.
  std::vector<std::vector<std::vector<Item>>> scripts;
  for (unsigned c = 0; c < kConnections; ++c) {
    scripts.push_back(burst_script(1000 * (c + 1), 4, 8, /*monitors=*/false));
  }
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back([&petd, &scripts, c] {
      Client client(petd.connect());
      ASSERT_GE(client.fd(), 0);
      svc::EstimationService reference(daemon_config());
      run_script(client, reference, scripts[c],
                 "connection " + std::to_string(c));
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(PetdWire, FinishedSessionsAreReaped) {
  constexpr int kCycles = 256;
  constexpr std::uint64_t kSlackKb = 64 * 1024;
  Petd petd;
  ASSERT_TRUE(petd.running());

  // Each cycle waits for its session thread to exit before the next
  // connects, so glibc hands the next session the same malloc arena
  // (overlapping sessions would each reserve one).  The request is one
  // garbage byte, answered MALFORMED_FRAME by the session itself: the
  // estimation workers would reserve arenas of their own.  What is left to
  // grow is exactly the unjoined session thread stacks.
  const Bytes garbage = {0x00};
  std::uint64_t base_kb = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    {
      Client client(petd.connect());
      ASSERT_GE(client.fd(), 0) << "cycle " << cycle;
      ASSERT_TRUE(client.send(garbage));
      ASSERT_EQ(client.receive_frame().status,
                static_cast<std::uint16_t>(svc::StatusCode::kMalformedFrame));
    }
    const auto exited = Clock::now() + std::chrono::seconds(5);
    while (proc_status(petd.pid(), "Threads") > petd.idle_threads() &&
           Clock::now() < exited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (cycle == 0) base_kb = proc_status(petd.pid(), "VmSize");
  }
  ASSERT_GT(base_kb, 0u);

  // Sessions are joined on the accept loop's poll tick; give it a few.
  std::uint64_t now_kb = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    now_kb = proc_status(petd.pid(), "VmSize");
  } while (now_kb > base_kb + kSlackKb && Clock::now() < deadline);
  EXPECT_LE(now_kb, base_kb + kSlackKb)
      << "VmSize grew from " << base_kb << " kB to " << now_kb << " kB over "
      << kCycles << " connections";
}

TEST(PetdWire, DrainDoesNotHangOnClientThatStopsReading) {
  constexpr int kPings = 20000;
  Petd petd;
  ASSERT_TRUE(petd.running());
  const int fd = petd.connect();
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, O_NONBLOCK), 0);

  // Pipeline pings and never read: petd's replies fill the socket, it
  // stops reading, and our writes stall too.
  Bytes pings;
  const Bytes ping =
      svc::encode_frame(svc::make_request(svc::CommandId::kPing));
  for (int i = 0; i < kPings; ++i) {
    pings.insert(pings.end(), ping.begin(), ping.end());
  }
  std::size_t sent = 0;
  while (sent < pings.size()) {
    const ssize_t n = ::send(fd, pings.data() + sent, pings.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << std::strerror(errno);
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 500) == 0) break;  // both directions stalled
  }

  const auto start = Clock::now();
  const int code = petd.terminate(std::chrono::seconds(3));
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);
  ::close(fd);
  EXPECT_EQ(code, 0) << "petd did not drain within 3 s (" << took.count()
                     << " ms) with a stalled reader";
  struct stat st{};
  EXPECT_NE(::stat(petd.socket_path().c_str(), &st), 0)
      << "petd left its socket behind";
}

TEST(PetdWire, TopShedShareCountsRefusedEstimates) {
  // One worker, one shard, one admission slot: while the first estimate of
  // a burst runs, the session submits the rest and the shard sheds them.
  // A shed estimate never became a request, so `petctl top` must show
  // shed / (requests + shed), which cannot pass 100%.
  constexpr std::uint64_t kPopulation = 7;
  Petd petd({"--threads=1", "--shards=1", "--max-inflight=1", "--quiet"});
  ASSERT_TRUE(petd.running());
  Client client(petd.connect());
  ASSERT_GE(client.fd(), 0);
  ASSERT_TRUE(
      client.send(svc::encode_frame(register_frame(kPopulation, 50000))));
  ASSERT_EQ(client.receive_frame().status,
            static_cast<std::uint16_t>(svc::StatusCode::kOk));

  Bytes burst;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    svc::EstimateRequest request;
    request.population_id = kPopulation;
    request.seed = rng::derive_seed(0x5AED, seed);
    request.robust = 1;
    const Bytes wire = svc::encode_frame(
        svc::make_request(svc::CommandId::kEstimate, svc::encode(request)));
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  ASSERT_TRUE(client.send(burst));
  unsigned exhausted = 0;
  for (int i = 0; i < 8; ++i) {
    if (client.receive_frame().status ==
        static_cast<std::uint16_t>(svc::StatusCode::kResourceExhausted)) {
      ++exhausted;
    }
  }
  EXPECT_GE(exhausted, 1u)
      << "the one-slot shard admitted every estimate of the burst";

  int code = -1;
  const std::string top =
      run_petctl({"--socket=" + petd.socket_path(), "top", "--once"}, code);
  ASSERT_EQ(code, 0) << top;
  ASSERT_TRUE(client.send(svc::encode_frame(svc::make_request(
      svc::CommandId::kMetrics, svc::encode(svc::MetricsRequest{})))));
  const svc::Frame metrics = client.receive_frame();
  if (metrics.status ==
      static_cast<std::uint16_t>(svc::StatusCode::kUnsupported)) {
    GTEST_SKIP() << "kMetrics compiled out (PET_OBS=OFF)";
  }
  ASSERT_EQ(metrics.status, static_cast<std::uint16_t>(svc::StatusCode::kOk));
  const obs::JsonValue doc = obs::parse_json(
      std::string(metrics.payload.begin(), metrics.payload.end()));
  const obs::JsonValue* service = doc.find("service");
  ASSERT_NE(service, nullptr);
  const obs::JsonValue* populations = service->find("populations");
  ASSERT_NE(populations, nullptr);
  const obs::JsonValue* stats =
      populations->find(std::to_string(kPopulation));
  ASSERT_NE(stats, nullptr);
  const double requests = json_number(stats, "requests");
  const double shed = json_number(stats, "shed");
  ASSERT_GT(shed, 0.0);
  const double expected = 100.0 * shed / (requests + shed);

  // The population's row: id, shard, reqs, req/s, p50, p99, degraded%,
  // shed%, cache%.
  std::istringstream lines(top);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    for (std::string field; fields >> field;) row.push_back(field);
    if (row.size() != 9 || row[0] != std::to_string(kPopulation)) continue;
    found = true;
    const double shown = std::strtod(row[7].c_str(), nullptr);
    EXPECT_NEAR(shown, expected, 0.05) << line;
    EXPECT_LE(shown, 100.0) << line;
  }
  EXPECT_TRUE(found) << "no row for population " << kPopulation << " in:\n"
                     << top;
}

}  // namespace

#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "daemon.hpp"
#include "ledger.hpp"
#include "runtime/cancel.hpp"
#include "service/flight.hpp"

namespace pet::perf {

namespace {

constexpr std::uint64_t kStallNs = 10'000'000'000ULL;
constexpr int kMaxPollMs = 100;
constexpr int kCallTimeoutMs = 30'000;

}  // namespace

std::uint32_t FrameTable::add(const svc::Frame& frame) {
  const std::vector<std::uint8_t> wire = svc::encode_frame(frame);
  bytes_.insert(bytes_.end(), wire.begin(), wire.end());
  offsets_.push_back(bytes_.size());
  ids_.push_back(svc::derive_request_id(frame));
  return static_cast<std::uint32_t>(ids_.size() - 1);
}

struct LoadGenerator::Connection {
  struct Pending {
    std::uint32_t frame = 0;
    std::uint64_t send_ns = 0;
  };

  int fd = -1;
  svc::Decoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_sent = 0;
  std::vector<Pending> inflight;  ///< FIFO ring of capacity `depth`
  std::size_t head = 0;
  std::size_t count = 0;
  const Script* script = nullptr;
  std::size_t cursor = 0;  ///< position in prologue, then in cycle
  bool done = false;

  void reset(const Script& s) {
    script = &s;
    cursor = 0;
    done = s.prologue.empty() && s.cycle.empty();
    inflight.assign(std::max(1u, s.depth), Pending{});
    head = 0;
    count = 0;
  }

  /// Next frame of the script, or false when it is exhausted.
  bool next(std::uint32_t& frame) {
    if (done) return false;
    const std::size_t pro = script->prologue.size();
    if (cursor < pro) {
      frame = script->prologue[cursor++];
      return true;
    }
    if (script->cycle.empty()) {
      done = true;
      return false;
    }
    std::size_t at = cursor - pro;
    if (at == script->cycle.size()) {
      if (!script->repeat) {
        done = true;
        return false;
      }
      cursor = pro;
      at = 0;
    }
    frame = script->cycle[at];
    ++cursor;
    return true;
  }
};

LoadGenerator::LoadGenerator(const std::string& socket_path,
                             unsigned connections, const FrameTable& frames)
    : frames_(frames), connections_(connections) {
  for (Connection& c : connections_) {
    c.fd = connect_unix(socket_path);
    if (c.fd < 0 || ::fcntl(c.fd, F_SETFL, O_NONBLOCK) < 0) {
      throw std::runtime_error("perf_ledger: cannot connect to " +
                               socket_path);
    }
  }
}

LoadGenerator::~LoadGenerator() {
  for (Connection& c : connections_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool LoadGenerator::fail(std::string why) {
  error_ = std::move(why);
  return false;
}

bool LoadGenerator::run(const std::vector<Script>& scripts,
                        const std::vector<std::uint64_t>& phase_ends,
                        const ReplyFn& on_reply, const PhaseFn& on_phase) {
  if (scripts.size() != connections_.size()) {
    throw std::logic_error("perf_ledger: one script per connection");
  }
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    connections_[i].reset(scripts[i]);
  }
  const unsigned phases = static_cast<unsigned>(phase_ends.size());
  phase_cpu_s_.assign(phases + 1, 0.0);
  unsigned phase = 0;
  double cpu_mark = thread_cpu_s();
  std::uint64_t last_progress = now_ns();

  std::vector<pollfd> fds(connections_.size());
  svc::Frame response;
  std::uint8_t buffer[65536];

  for (;;) {
    if (runtime::shutdown_requested()) return fail("interrupted");
    std::uint64_t now = now_ns();
    while (phase < phases && now >= phase_ends[phase]) {
      const double cpu = thread_cpu_s();
      phase_cpu_s_[phase] = cpu - cpu_mark;
      cpu_mark = cpu;
      ++phase;
      if (on_phase) on_phase(phase);
      now = now_ns();
    }
    const bool sending = phases == 0 || phase < phases;

    bool idle = true;
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      Connection& c = connections_[i];
      std::uint32_t frame = 0;
      while (sending && c.count < c.inflight.size() && c.next(frame)) {
        const std::uint8_t* bytes = frames_.data(frame);
        c.out.insert(c.out.end(), bytes, bytes + frames_.size(frame));
        c.inflight[(c.head + c.count) % c.inflight.size()] = {frame, now};
        ++c.count;
      }
      while (c.out_sent < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + c.out_sent,
                                  c.out.size() - c.out_sent);
        if (n > 0) {
          c.out_sent += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          return fail("connection " + std::to_string(i) +
                      ": write failed: " + std::strerror(errno));
        }
      }
      if (c.out_sent == c.out.size()) {
        c.out.clear();
        c.out_sent = 0;
      }
      if (c.count != 0 || (sending && !c.done)) idle = false;
      fds[i] = {c.fd,
                static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                0};
    }
    if (idle) break;
    if (now - last_progress > kStallNs) {
      return fail("no reply from petd for 10 s");
    }

    int timeout_ms = kMaxPollMs;
    if (phase < phases) {
      const std::uint64_t left = phase_ends[phase] - std::min(now, phase_ends[phase]);
      timeout_ms = static_cast<int>(
          std::min<std::uint64_t>(kMaxPollMs, (left + 999'999) / 1'000'000));
    }
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return fail(std::string("poll failed: ") + std::strerror(errno));
    }

    for (std::size_t i = 0; i < connections_.size() && ready > 0; ++i) {
      Connection& c = connections_[i];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = ::read(c.fd, buffer, sizeof buffer);
        if (n == 0) {
          return fail("connection " + std::to_string(i) + " closed by petd");
        }
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return fail("connection " + std::to_string(i) +
                      ": read failed: " + std::strerror(errno));
        }
        const std::uint64_t recv_ns = now_ns();
        c.decoder.feed(buffer, static_cast<std::size_t>(n));
        for (;;) {
          const svc::DecodeStatus status = c.decoder.next(response);
          if (status == svc::DecodeStatus::kNeedMoreData) break;
          if (status != svc::DecodeStatus::kFrame) {
            return fail("connection " + std::to_string(i) +
                        ": undecodable reply (" +
                        std::string(svc::to_string(status)) + ")");
          }
          if (c.count == 0) {
            return fail("connection " + std::to_string(i) +
                        ": reply without a request");
          }
          const Connection::Pending pending = c.inflight[c.head];
          c.head = (c.head + 1) % c.inflight.size();
          --c.count;
          last_progress = recv_ns;
          Reply reply;
          reply.connection = static_cast<unsigned>(i);
          reply.frame = pending.frame;
          reply.phase = static_cast<unsigned>(
              std::upper_bound(phase_ends.begin(), phase_ends.end(),
                               recv_ns) -
              phase_ends.begin());
          reply.send_ns = pending.send_ns;
          reply.recv_ns = recv_ns;
          reply.response = &response;
          on_reply(reply);
        }
        if (static_cast<std::size_t>(n) < sizeof buffer) break;
      }
    }
  }
  phase_cpu_s_[phase] += thread_cpu_s() - cpu_mark;
  return true;
}

std::optional<svc::Frame> LoadGenerator::call(const svc::Frame& request) {
  Connection& c = connections_.front();
  const std::vector<std::uint8_t> wire = svc::encode_frame(request);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(kCallTimeoutMs) * 1'000'000;
  std::size_t sent = 0;
  svc::Frame response;
  while (now_ns() < deadline) {
    if (sent < wire.size()) {
      const ssize_t n = ::write(c.fd, wire.data() + sent, wire.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return std::nullopt;
      }
    }
    pollfd pfd{c.fd,
               static_cast<short>(POLLIN | (sent < wire.size() ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, kMaxPollMs) <= 0) continue;
    std::uint8_t buffer[65536];
    const ssize_t n = ::read(c.fd, buffer, sizeof buffer);
    if (n == 0) return std::nullopt;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return std::nullopt;
    }
    c.decoder.feed(buffer, static_cast<std::size_t>(n));
    const svc::DecodeStatus status = c.decoder.next(response);
    if (status == svc::DecodeStatus::kFrame) return response;
    if (status != svc::DecodeStatus::kNeedMoreData) return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace pet::perf

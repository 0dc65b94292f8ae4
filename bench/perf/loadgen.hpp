// Closed-loop load generator over petd's Unix socket: one thread, a fixed
// set of connections, each holding up to `depth` requests in flight.
//
// It cannot deadlock against petd and should not become the bottleneck:
//  * sockets are non-blocking with a per-connection output buffer, and one
//    poll(POLLIN|POLLOUT) drives every connection.  A client that blocks in
//    write() can deadlock: petd's connection thread stops reading while it
//    writes replies, so both sides end up blocked writing to each other;
//  * every request frame is encoded once, during set-up (FrameTable), so
//    the loop only copies bytes.  The caller checks the loop's own CPU
//    share (phase_cpu_s) and rejects a run where it nears a full core.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "service/frame.hpp"

namespace pet::perf {

/// Request frames encoded once into one flat buffer.
class FrameTable {
 public:
  /// Encode `frame`; returns its index.
  std::uint32_t add(const svc::Frame& frame);

  [[nodiscard]] const std::uint8_t* data(std::uint32_t index) const noexcept {
    return bytes_.data() + offsets_[index];
  }
  [[nodiscard]] std::size_t size(std::uint32_t index) const noexcept {
    return offsets_[index + 1] - offsets_[index];
  }
  /// petd's content-addressed id for the frame (svc::derive_request_id).
  [[nodiscard]] std::uint64_t request_id(std::uint32_t index) const noexcept {
    return ids_[index];
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::size_t> offsets_{0};
  std::vector<std::uint64_t> ids_;
};

/// What one connection sends: `prologue` once, then `cycle` — repeated
/// until the run's last phase ends, or once when `repeat` is false.
struct Script {
  std::vector<std::uint32_t> prologue;
  std::vector<std::uint32_t> cycle;
  bool repeat = true;
  unsigned depth = 1;  ///< requests in flight on the connection
};

/// One decoded reply, matched to its request (replies on a connection
/// come back in request order).
struct Reply {
  unsigned connection = 0;
  std::uint32_t frame = 0;  ///< FrameTable index of the request
  unsigned phase = 0;       ///< phase the reply arrived in
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
  const svc::Frame* response = nullptr;  ///< valid during the callback only
};

class LoadGenerator {
 public:
  /// Opens `connections` connections to `socket_path`; throws on failure.
  LoadGenerator(const std::string& socket_path, unsigned connections,
                const FrameTable& frames);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  using ReplyFn = std::function<void(const Reply&)>;
  /// Called with phase k as the clock crosses phase_ends[k - 1].
  using PhaseFn = std::function<void(unsigned phase)>;

  /// Drive one script per connection.  `phase_ends` are absolute now_ns()
  /// boundaries: a reply belongs to the phase its arrival falls in, and
  /// once the last boundary passes nothing more is sent and the requests
  /// still in flight are drained (phase == phase_ends.size()).  With no
  /// boundaries the run ends when every script is done.  Returns false
  /// (see error()) when a connection died, a reply did not decode, petd
  /// stopped answering for 10 s, or shutdown was requested.
  bool run(const std::vector<Script>& scripts,
           const std::vector<std::uint64_t>& phase_ends,
           const ReplyFn& on_reply, const PhaseFn& on_phase = {});

  /// Generator-thread CPU seconds spent in each phase of the last run().
  [[nodiscard]] const std::vector<double>& phase_cpu_s() const noexcept {
    return phase_cpu_s_;
  }

  /// Blocking request/response on connection 0 between runs.
  [[nodiscard]] std::optional<svc::Frame> call(const svc::Frame& request);

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  struct Connection;
  bool fail(std::string why);

  const FrameTable& frames_;
  std::vector<Connection> connections_;
  std::vector<double> phase_cpu_s_;
  std::string error_;
};

}  // namespace pet::perf

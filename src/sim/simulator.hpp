// A minimal discrete-event simulation kernel.
//
// The slotted-MAC protocols in this library are synchronous, so most of the
// simulation advances slot by slot; the kernel exists to (a) timestamp those
// slots so experiments can report wall-clock estimation latency, (b)
// interleave asynchronous events (tag arrivals/departures, mobility steps,
// multi-reader coordination) with the slot schedule, and (c) make every run
// reproducible from a single seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/ensure.hpp"

namespace pet::sim {

/// Simulation time in microseconds.
using SimTime = std::uint64_t;

class Simulator {
 public:
  using Action = std::function<void(Simulator&)>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `action` to run at absolute time `at` (>= now).  Events with
  /// equal timestamps run in scheduling order (stable FIFO).
  void schedule_at(SimTime at, Action action);

  /// Schedule `action` to run `delay` microseconds from now.
  void schedule_in(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Advance time by `delta` without dispatching (used by synchronous slot
  /// loops to account for slot airtime).
  void advance(SimTime delta) noexcept { now_ += delta; }

  /// Run until the event queue is empty or `until` is reached (whichever
  /// first).  Returns the number of events dispatched.
  std::size_t run(SimTime until = UINT64_MAX);

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

/// Air-interface timing of one Reader-Talks-First slot (Section 3).  The
/// defaults approximate an EPC C1G2 link (reader command plus tag backscatter
/// around 0.3 + 0.1 ms); the paper abstracts this to "one time slot", so all
/// paper metrics are *slot counts* and timing only feeds latency reporting.
struct SlotTiming {
  SimTime command_us = 300;
  SimTime reply_us = 100;

  [[nodiscard]] SimTime slot_us() const noexcept { return command_us + reply_us; }
};

}  // namespace pet::sim

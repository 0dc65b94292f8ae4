// Self-profiling: per-phase wall/CPU time and slots-per-second throughput.
// Everything here is a *description of the run* (it depends on the machine
// and the scheduler), so it is exported only under the "profile" key of the
// metrics document and must never feed a deterministic aggregate or golden
// comparison (docs/observability.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pet::obs {

/// Accumulates named phases.  Not thread-safe: profile one from the
/// coordinating thread (petsim's command driver, a bench main).
class PhaseProfiler {
 public:
  struct Phase {
    std::string name;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;  ///< process CPU time (all threads)
    std::uint64_t slots = 0;   ///< simulated slots attributed to the phase
  };

  /// RAII scope: measures wall/CPU between construction and destruction
  /// and folds the result into the profiler (same-name phases merge).
  class Scope {
   public:
    Scope(PhaseProfiler& profiler, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attribute simulated slots to this phase (for slots/second).
    void add_slots(std::uint64_t slots) noexcept { slots_ += slots; }

   private:
    PhaseProfiler& profiler_;
    std::string name_;
    std::chrono::steady_clock::time_point wall_begin_;
    double cpu_begin_ = 0.0;
    std::uint64_t slots_ = 0;
  };

  void record(Phase phase);
  [[nodiscard]] const std::vector<Phase>& phases() const noexcept {
    return phases_;
  }

  /// Process CPU time in seconds (CLOCK_PROCESS_CPUTIME_ID when available,
  /// std::clock otherwise).
  [[nodiscard]] static double process_cpu_seconds() noexcept;

 private:
  std::vector<Phase> phases_;
};

/// The two phases of one sweep trial: acquiring the channel (hash + bucket
/// / rebuild) vs running the estimation rounds.
enum class SweepPhase : std::uint8_t { kBuild, kEstimate };

/// Thread-safe process-wide wall-time totals per SweepPhase, accumulated by
/// the trial lambdas on worker threads (unlike PhaseProfiler, which is
/// single-threaded).  Summed across threads, so on a T-thread sweep the
/// totals can exceed the artifact's wall_seconds by up to a factor of T;
/// their *ratio* is the signal (does construction dominate?).  Emitted as
/// the BENCH json "profile" member — descriptive, never part of a golden
/// comparison.
void add_sweep_phase_seconds(SweepPhase phase, double seconds) noexcept;
[[nodiscard]] double sweep_phase_seconds(SweepPhase phase) noexcept;
void reset_sweep_phase_seconds() noexcept;

}  // namespace pet::obs

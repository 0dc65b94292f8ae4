// pet::obs — the observability subsystem: a process-wide MetricsRegistry of
// named counters, gauges, and fixed-bucket histograms (docs/observability.md).
//
// Design constraints, in priority order:
//
//  1. **Determinism.**  Counters and histogram buckets are unsigned integer
//     sums of per-event contributions.  Integer addition is commutative and
//     associative, so the merged totals are identical for any thread count
//     and any scheduling order — enabling metrics can never perturb (or be
//     perturbed by) the TrialRunner bit-identity contract.  Anything that is
//     *not* scheduling-invariant (wall/CPU time, pool queue behaviour) is
//     quarantined in the `profile` domain and must never be compared against
//     goldens (docs/observability.md spells out the rules).
//  2. **Near-zero disabled cost.**  Every instrumentation site guards on one
//     relaxed atomic load of the global level (`counters_enabled()`); with
//     observability disabled the hot path pays a single predictable branch.
//     Compiling with -DPET_OBS_DISABLED (CMake option PET_OBS=OFF) removes
//     even that.
//  3. **Thread safety without locks on the hot path.**  Each thread owns a
//     fixed-size shard of relaxed atomic cells; registration and snapshot
//     take the registry mutex, increments never do.  Shards of exited
//     threads are folded into a retired accumulator so no count is lost.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#if defined(PET_OBS_DISABLED)
#define PET_OBS_COMPILED 0
#else
#define PET_OBS_COMPILED 1
#endif

namespace pet::obs {

/// Global observability level: kOff records nothing, kCounters activates
/// the metrics registry, kFull additionally enables span/event tracing.
enum class Level : std::uint8_t { kOff = 0, kCounters = 1, kFull = 2 };

[[nodiscard]] std::string_view to_string(Level level) noexcept;

/// Parse "off" | "counters" | "full"; throws PreconditionError otherwise.
[[nodiscard]] Level parse_level(std::string_view text);

namespace detail {
inline std::atomic<std::uint8_t> g_level{0};
}  // namespace detail

inline void set_level(Level level) noexcept {
  detail::g_level.store(static_cast<std::uint8_t>(level),
                        std::memory_order_relaxed);
}
[[nodiscard]] inline Level level() noexcept {
  return static_cast<Level>(detail::g_level.load(std::memory_order_relaxed));
}
/// The one branch every instrumentation site pays when observability is off.
[[nodiscard]] inline bool counters_enabled() noexcept {
#if PET_OBS_COMPILED
  return detail::g_level.load(std::memory_order_relaxed) >=
         static_cast<std::uint8_t>(Level::kCounters);
#else
  return false;
#endif
}
[[nodiscard]] inline bool full_enabled() noexcept {
#if PET_OBS_COMPILED
  return detail::g_level.load(std::memory_order_relaxed) >=
         static_cast<std::uint8_t>(Level::kFull);
#else
  return false;
#endif
}

/// Raw level byte for call sites that snapshot the level at a coarse
/// boundary (a channel's begin_round) and branch on the cached byte in
/// per-slot code: one plain load instead of an atomic load per slot, which
/// is what keeps the disabled hot path within the <= 2% overhead budget
/// (bench/micro_ops BM_PetRoundObsOff).  Level changes take effect at the
/// next boundary, never mid-round.  Always 0 when compiled out, so the
/// cached-byte guards below constant-fold away under PET_OBS=OFF.
[[nodiscard]] inline std::uint8_t level_byte() noexcept {
#if PET_OBS_COMPILED
  return detail::g_level.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}
[[nodiscard]] constexpr bool counters_enabled(std::uint8_t cached) noexcept {
  return cached >= static_cast<std::uint8_t>(Level::kCounters);
}
[[nodiscard]] constexpr bool full_enabled(std::uint8_t cached) noexcept {
  return cached >= static_cast<std::uint8_t>(Level::kFull);
}

/// Which export section a metric belongs to.  kDeterministic values are
/// scheduling-invariant and may be diffed against goldens; kProfile values
/// (timings, pool behaviour) are run descriptions and must not be.
enum class Domain : std::uint8_t { kDeterministic = 0, kProfile = 1 };

class MetricsRegistry;

/// Cheap copyable handle to a registered counter.  A default-constructed
/// handle is inert (add() is a no-op) so static bundles stay safe even if
/// registration is skipped in PET_OBS_DISABLED builds.
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t delta = 1) const noexcept;

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint32_t slot) noexcept : slot_(slot) {}
  std::uint32_t slot_ = UINT32_MAX;
};

/// Last-write-wins scalar.  Gauges are registry-level (not sharded), so a
/// gauge that should stay deterministic must only be set from serial code —
/// see the determinism rules in docs/observability.md.
class Gauge {
 public:
  Gauge() = default;
  inline void set(double value) const noexcept;

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::uint32_t index) noexcept : index_(index) {}
  std::uint32_t index_ = UINT32_MAX;
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds (value v
/// lands in the first bucket with v <= bound; values beyond the last bound
/// land in the overflow bucket), so counts has bounds.size() + 1 entries.
class Histogram {
 public:
  Histogram() = default;
  inline void observe(double value) const noexcept;
  /// Bulk add: `counts[i]` more observations in bucket i, for folding in a
  /// histogram kept elsewhere (bucket counts past bounds + 1 are ignored).
  inline void add_counts(std::span<const std::uint64_t> counts) const noexcept;

 private:
  friend class MetricsRegistry;
  Histogram(std::uint32_t first_slot, const std::vector<double>* bounds) noexcept
      : first_slot_(first_slot), bounds_(bounds) {}
  std::uint32_t first_slot_ = UINT32_MAX;
  const std::vector<double>* bounds_ = nullptr;
};

/// Merged point-in-time view of the registry, deterministic iff every
/// contribution was (see Domain).  Metrics are sorted by name so the JSON
/// rendering is byte-stable.
struct Snapshot {
  struct CounterValue {
    std::string name;
    Domain domain = Domain::kDeterministic;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    Domain domain = Domain::kDeterministic;
    bool assigned = false;  ///< set() called at least once
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    Domain domain = Domain::kDeterministic;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
    [[nodiscard]] std::uint64_t total() const noexcept {
      std::uint64_t sum = 0;
      for (const std::uint64_t c : counts) sum += c;
      return sum;
    }
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Counter value by name; 0 when absent (convenience for tests/tools).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  [[nodiscard]] const HistogramValue* histogram(
      std::string_view name) const noexcept;
};

/// The process-wide registry.  Registration is idempotent by name (the
/// same name + kind returns the same handle; a kind or shape mismatch
/// throws), so instrumentation sites can use function-local statics.
class MetricsRegistry {
 public:
  /// Shard capacity: counters take one cell, histograms bounds+1 cells.
  /// The repo registers a few dozen metrics; 1024 leaves generous headroom
  /// while keeping per-thread shards one fixed 8 KiB block.
  static constexpr std::size_t kMaxCells = 1024;

  /// The process-wide instance (intentionally leaked: worker threads may
  /// retire shards during static destruction).
  [[nodiscard]] static MetricsRegistry& instance();

  [[nodiscard]] Counter counter(std::string_view name,
                                Domain domain = Domain::kDeterministic);
  [[nodiscard]] Gauge gauge(std::string_view name,
                            Domain domain = Domain::kDeterministic);
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::vector<double> bounds,
                                    Domain domain = Domain::kDeterministic);

  /// Merge every live shard plus the retired accumulator into totals.
  /// Safe to call concurrently with increments (relaxed reads; an in-flight
  /// increment lands in this snapshot or the next).
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every cell and unset every gauge.  Intended for quiescent points
  /// (test setup, between petsim phases); concurrent increments may survive.
  void reset() noexcept;

  /// Registered metric count (tests).
  [[nodiscard]] std::size_t metric_count() const;

  // -- internal: shard plumbing (public for the inline hot path) ----------
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCells> cells{};
  };
  [[nodiscard]] static Shard& local_shard();
  void set_gauge(std::uint32_t index, double value) noexcept;

 private:
  MetricsRegistry() = default;
  ~MetricsRegistry() = default;

  struct Metric;
  void retire(Shard* shard) noexcept;
  struct ShardHandle;

  mutable std::mutex mutex_;
  std::vector<Metric> metrics_;
  std::vector<Shard*> shards_;
  std::array<std::uint64_t, kMaxCells> retired_{};
  std::vector<double> gauge_values_;  // guarded by mutex_ (gauges are rare)
  std::vector<bool> gauge_assigned_;
  std::uint32_t next_cell_ = 0;
};

inline void Counter::add(std::uint64_t delta) const noexcept {
#if PET_OBS_COMPILED
  if (slot_ == UINT32_MAX) return;
  MetricsRegistry::local_shard().cells[slot_].fetch_add(
      delta, std::memory_order_relaxed);
#else
  (void)delta;
#endif
}

inline void Gauge::set(double value) const noexcept {
#if PET_OBS_COMPILED
  if (index_ == UINT32_MAX) return;
  MetricsRegistry::instance().set_gauge(index_, value);
#else
  (void)value;
#endif
}

inline void Histogram::observe(double value) const noexcept {
#if PET_OBS_COMPILED
  if (bounds_ == nullptr) return;
  std::uint32_t bucket = 0;
  while (bucket < bounds_->size() && value > (*bounds_)[bucket]) ++bucket;
  MetricsRegistry::local_shard().cells[first_slot_ + bucket].fetch_add(
      1, std::memory_order_relaxed);
#else
  (void)value;
#endif
}

inline void Histogram::add_counts(
    std::span<const std::uint64_t> counts) const noexcept {
#if PET_OBS_COMPILED
  if (bounds_ == nullptr) return;
  for (std::size_t i = 0; i < counts.size() && i <= bounds_->size(); ++i) {
    MetricsRegistry::local_shard().cells[first_slot_ + i].fetch_add(
        counts[i], std::memory_order_relaxed);
  }
#else
  (void)counts;
#endif
}

}  // namespace pet::obs

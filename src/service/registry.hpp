// pet::svc population registry: the server-side state petd answers from.
//
// Each registered population is a long-lived chan::SortedPetChannel
// holding its preloaded codes — the per-population *channel arena*; the
// tag ids are generated, hashed and freed at registration.  Hashing and
// bucketing the codes costs O(n) once; every estimate after that reuses
// them (reset_ledger per request), which is what lets petd hold thousands
// of concurrent populations.  A per-entry mutex serializes estimates
// against the same population (the channel is stateful across rounds);
// different populations proceed in parallel.
//
// The registry is internally *sliced* to mirror the service's
// population-affine shards (shard.hpp): slice index = shard_of(id, slices),
// so a shard's workers only ever contend on their own slice's mutex and a
// registration storm against one shard cannot stall lookups on another.
// Slicing is invisible in every output: fold_stats sums are
// order-independent and snapshot_stats sorts by id, so all exports are
// byte-identical at any slice count.
//
// Every successful registration is stamped with a registry-global *epoch*
// (monotone counter, never reused).  The epoch names the population
// *content*, not the id: re-registering an id mints a fresh epoch, which is
// what lets the service's result cache key on (epoch, seed, ...) and treat
// unregister/re-register as implicit invalidation (cache.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "channel/sorted_pet_channel.hpp"

namespace pet::svc {

/// Upper bounds of the slot-unit latency histogram every population keeps
/// (backoff + query slots per estimate; deterministic, not wall time).
inline constexpr std::array<double, 7> kSvcLatencySlotBounds = {
    0.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0};

/// Per-population request totals, as atomic cells in a live entry
/// (PopulationStats) or as plain values in a snapshot.  These cells are the
/// only store of the pet.svc.pop.* facts: kMonitor's aggregates, the
/// kMetrics "service" member and the pet.svc.pop.* names of every export
/// all fold them, so no two surfaces can disagree.  Everything here is in
/// slot units or event counts — deterministic for a given request script at
/// any worker_threads.
template <typename Cell>
struct PopulationCells {
  /// Bucket count of the slot-unit latency histogram (bounds in
  /// kSvcLatencySlotBounds; last bucket is overflow).
  static constexpr std::size_t kLatencyBuckets =
      kSvcLatencySlotBounds.size() + 1;

  Cell requests{};   ///< estimates that found the entry
  Cell ok{};         ///< kOk replies (incl. degraded)
  Cell degraded{};   ///< kOk with a nonzero degrade mask
  Cell truncated{};  ///< deadline stopped the round loop
  Cell errors{};     ///< typed error replies
  Cell shed{};       ///< refused at admission
  Cell deadline_misses{};
  Cell retries{};
  Cell backoff_slots{};
  Cell query_slots{};
  Cell rounds{};
  Cell rounds_planned{};
  Cell cache_hits{};  ///< ok replies served from cache
  std::array<Cell, kLatencyBuckets> latency_slots{};
};

/// A live entry's totals, updated by the service on every estimate that
/// resolved to the entry.
struct PopulationStats : PopulationCells<std::atomic<std::uint64_t>> {
  /// Bucket (backoff + query) slots into the latency histogram.
  void observe_latency_slots(std::uint64_t slots) noexcept;
};

/// Plain-value snapshot of PopulationStats, addable so the registry can
/// fold live entries plus already-unregistered ones into one total.
struct PopulationStatsSnapshot : PopulationCells<std::uint64_t> {
  /// Add every cell of a live entry's totals, or of another snapshot.
  void accumulate(const PopulationStats& stats) noexcept;
  void accumulate(const PopulationStatsSnapshot& other) noexcept;
};

struct RegistryConfig {
  std::size_t max_populations = 65536;  ///< register beyond this is shed
  std::size_t max_tags_per_population = 1u << 24;
  unsigned tree_height = 32;  ///< H for every population's channel
};

class PopulationRegistry {
 public:
  /// One registered population: its codes (in the channel) and totals.
  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;  ///< registration epoch (set once, never 0)
    std::unique_ptr<chan::SortedPetChannel> channel;
    std::mutex mutex;  ///< serializes channel use across requests
    PopulationStats stats;  ///< request totals (lock-free, always compiled)
  };

  /// `slices` is normally the owning service's shard count so a shard's
  /// lock traffic stays on its own slice; 1 (the default) reproduces the
  /// single-mutex registry exactly.
  explicit PopulationRegistry(RegistryConfig config = {}, unsigned slices = 1);

  enum class RegisterOutcome : std::uint8_t {
    kRegistered,
    kAlreadyExists,
    kFull,            ///< max_populations reached: typed shed, not a crash
    kInvalidRequest,  ///< tag count out of range
  };

  /// Create a population of `tag_count` deterministically-generated tags
  /// (factory EPCs derived from `population_seed`) and build its channel.
  RegisterOutcome register_population(std::uint64_t id,
                                      std::uint64_t tag_count,
                                      std::uint64_t population_seed);

  /// Remove a population.  In-flight estimates holding the entry keep it
  /// alive (shared ownership); new lookups fail immediately.  The entry's
  /// epoch is retired with it — no future registration reuses it, so cache
  /// entries keyed on it can never match again.
  bool unregister_population(std::uint64_t id);

  /// Shared handle, or nullptr when unknown.  Callers lock entry->mutex for
  /// the duration of channel use.
  [[nodiscard]] std::shared_ptr<Entry> find(std::uint64_t id) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const RegistryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] unsigned slices() const noexcept {
    return static_cast<unsigned>(slices_.size());
  }
  /// Epochs handed out so far (diagnostics; the next registration gets
  /// epochs() + 1).
  [[nodiscard]] std::uint64_t epochs() const noexcept {
    return epoch_counter_.load(std::memory_order_relaxed);
  }

  /// Grand total over every population this registry has ever served:
  /// live entries plus the retired accumulator (folded on unregister), so
  /// aggregate counters never go backwards when a population leaves.
  [[nodiscard]] PopulationStatsSnapshot fold_stats() const;

  /// Per-live-population snapshots sorted by id (deterministic iteration
  /// order for the kMetrics JSON export).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, PopulationStatsSnapshot>>
  snapshot_stats() const;

 private:
  /// One shard-affine partition of the id space: its own mutex, map, and
  /// retired accumulator.
  struct Slice {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> entries;
    PopulationStatsSnapshot retired;  ///< totals of unregistered populations
  };

  [[nodiscard]] Slice& slice_for(std::uint64_t id) noexcept;
  [[nodiscard]] const Slice& slice_for(std::uint64_t id) const noexcept;

  RegistryConfig config_;
  std::vector<std::unique_ptr<Slice>> slices_;
  std::atomic<std::size_t> count_{0};          ///< live entries, all slices
  std::atomic<std::uint64_t> epoch_counter_{0};
};

}  // namespace pet::svc

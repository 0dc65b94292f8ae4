// pet::svc result cache: a bounded LRU over finished estimate replies.
//
// The service's estimates are pure functions of (population content,
// request seed, accuracy contract, deadline budget, vote parameters) — the
// whole determinism contract of docs/service.md.  That purity is what makes
// caching sound: a cache entry stores the *exact wire payload* of a kOk
// estimate reply, so a hit returns bytes indistinguishable from re-running
// the estimate.
//
// The key embeds the population's registration *epoch* (a registry-global
// counter bumped on every register), not just its id: re-registering an id
// mints a fresh epoch, so entries cached against the old population content
// can never match again — invalidation is implicit and stale entries simply
// age out of the LRU.
//
// Alongside the payload each entry carries the per-population fold deltas
// (rounds, slots, retries, degrade mask) the miss path would have charged,
// so a hit replays the same PopulationStats mutations and kMonitor /
// kMetrics / BENCH fold rows are cache-invariant.  What a hit deliberately
// skips is the channel work itself — chan.* and core.robust.* obs counters
// do NOT accumulate on hits (that is the saving being measured).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace pet::svc {

struct ResultCacheConfig {
  std::size_t max_entries = 0;  ///< 0 disables the cache entirely
  std::size_t max_bytes = std::size_t{1} << 22;  ///< payload + overhead cap
};

/// Plain-value counters for the kMetrics "cache" member and petctl top.
struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

class ResultCache {
 public:
  /// Everything an estimate's response bytes depend on, besides the
  /// population content (pinned by `epoch`).
  struct Key {
    std::uint64_t epoch = 0;
    std::uint64_t population_id = 0;
    std::uint64_t seed = 0;
    std::uint64_t epsilon_bits = 0;  ///< IEEE-754 bits of the request ε
    std::uint64_t delta_bits = 0;    ///< IEEE-754 bits of the request δ
    std::uint64_t deadline_slots = 0;
    std::uint8_t robust = 0;
    std::uint32_t vote_reads = 0;
    std::uint32_t vote_quorum = 0;

    [[nodiscard]] bool operator==(const Key& other) const noexcept = default;
  };

  /// The fold deltas a hit replays into PopulationStats / RequestRecord —
  /// exactly what the miss path charged when the entry was created.
  struct Replay {
    std::uint64_t planned_rounds = 0;
    std::uint64_t rounds = 0;
    std::uint64_t query_slots = 0;
    std::uint64_t backoff_slots = 0;
    std::uint32_t retries = 0;
    std::uint32_t degrade_mask = 0;
    std::uint8_t degraded = 0;
    std::uint8_t truncated = 0;
  };

  explicit ResultCache(ResultCacheConfig config);

  [[nodiscard]] bool enabled() const noexcept {
    return config_.max_entries > 0;
  }
  [[nodiscard]] const ResultCacheConfig& config() const noexcept {
    return config_;
  }

  /// On hit: copies the stored payload + replay out, promotes the entry to
  /// most-recently-used, counts a hit.  On miss: counts a miss.  Always
  /// false when the cache is disabled (without counting anything).
  [[nodiscard]] bool lookup(const Key& key, std::vector<std::uint8_t>& payload,
                            Replay& replay);

  /// Insert (or refresh) an entry; evicts least-recently-used entries until
  /// both the entry and byte bounds hold.  A payload too large for
  /// max_bytes on its own is not cached.  No-op when disabled.
  void insert(const Key& key, const std::vector<std::uint8_t>& payload,
              const Replay& replay);

  [[nodiscard]] ResultCacheStats stats() const;

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& key) const noexcept;
  };
  struct Node {
    std::vector<std::uint8_t> payload;
    Replay replay;
    std::list<Key>::iterator lru;  ///< position in lru_ (front = newest)
  };

  /// Fixed per-entry accounting overhead on top of the payload bytes (key,
  /// node bookkeeping, LRU link) so max_bytes bounds real memory, not just
  /// payload volume.
  static constexpr std::size_t kEntryOverhead =
      sizeof(Key) * 2 + sizeof(Node) + 48;

  [[nodiscard]] static std::size_t entry_bytes(
      const std::vector<std::uint8_t>& payload) noexcept {
    return payload.size() + kEntryOverhead;
  }

  /// Pop the LRU tail; caller holds mutex_.
  void evict_one_locked();

  ResultCacheConfig config_;
  mutable std::mutex mutex_;
  std::list<Key> lru_;
  std::unordered_map<Key, Node, KeyHash> map_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace pet::svc

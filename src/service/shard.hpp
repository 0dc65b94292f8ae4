// pet::svc population-affine sharding: the worker-pool partition behind
// EstimationService (docs/service.md).
//
// Every population id maps to exactly one shard (shard_of: a SplitMix64
// finalizer over the id, mod N), and every shard owns its own ThreadPool,
// inflight-admission budget, and shed accounting.  Routing is a pure
// function of the request content, so the shard a request lands on — and
// therefore the response bytes — is identical at any shard count and any
// pool width; only wall-clock interference changes.  That is the point: a
// hot population saturates its own shard's run queue and admission budget
// while the other shards' populations keep their latency.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace pet::svc {

/// Deterministic population -> shard map: SplitMix64 finalizer mix of the
/// id, reduced mod `shard_count`.  The mix step keeps sequential ids from
/// landing on sequential shards (registering ids 0..N-1 still spreads).
[[nodiscard]] std::uint32_t shard_of(std::uint64_t population_id,
                                     std::uint32_t shard_count) noexcept;

/// Default shard count for a service resolved to `worker_threads` workers:
/// half the workers, clamped to [1, 8].  A shard's pool runs only
/// cache-missing estimates (EstimationService answers everything else on
/// the submitting thread), and a one-thread shard would queue each miss
/// behind the one running; beyond 8 shards the per-shard inflight budgets
/// get too small to absorb bursts.
[[nodiscard]] unsigned derive_shard_count(unsigned worker_threads) noexcept;

/// The set of shards an EstimationService runs on.  Owns one ThreadPool per
/// shard plus the per-shard inflight/shed cells; admission (acquire /
/// release) and task submission are both per-shard.
class ShardSet {
 public:
  /// `total_threads` workers are split max(1, total/shards) per shard;
  /// `total_inflight_cap` splits the same way into per-shard admission
  /// budgets (so N shards can hold at most ~cap requests in flight overall,
  /// but no single shard can consume another's share).
  ShardSet(unsigned shard_count, unsigned total_threads,
           std::size_t total_inflight_cap);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  [[nodiscard]] unsigned count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] unsigned threads_per_shard() const noexcept {
    return threads_per_shard_;
  }
  [[nodiscard]] std::size_t max_inflight_per_shard() const noexcept {
    return max_inflight_per_shard_;
  }

  /// Route a population id to its shard index.
  [[nodiscard]] unsigned route(std::uint64_t population_id) const noexcept {
    return shard_of(population_id, count());
  }

  /// Take one admission slot on `shard`; returns the occupancy *including*
  /// this request.  The caller sheds (and calls release) when the return
  /// value exceeds max_inflight_per_shard() and the request is not
  /// control-plane.
  std::size_t acquire(unsigned shard) noexcept;
  void release(unsigned shard) noexcept;

  /// Enqueue a task on `shard`'s pool.
  std::future<void> submit(unsigned shard, std::function<void()> task);

  /// Run every queued task and join every shard's workers; the per-shard
  /// cells and pool stats stay readable.  Idempotent (the destructor
  /// calls it); no submit() may follow.
  void drain();

  void note_shed(unsigned shard) noexcept;

  [[nodiscard]] std::size_t total_inflight() const noexcept;
  [[nodiscard]] std::uint64_t shed(unsigned shard) const noexcept;

  /// Plain-value per-shard snapshot for the kMetrics "shards" member and
  /// the pet.svc.shard.* / svc.queue.depth names (profile domain).
  struct Snapshot {
    std::size_t inflight = 0;
    std::uint64_t shed = 0;
    std::uint64_t submitted = 0;
    std::uint64_t stolen = 0;
  };
  [[nodiscard]] std::vector<Snapshot> snapshot() const;

 private:
  struct alignas(64) Shard {
    std::unique_ptr<runtime::ThreadPool> pool;
    std::atomic<std::size_t> inflight{0};
    std::atomic<std::uint64_t> shed{0};
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  unsigned threads_per_shard_ = 1;
  std::size_t max_inflight_per_shard_ = 1;
};

}  // namespace pet::svc

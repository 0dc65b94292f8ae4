#include "service/shard.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace pet::svc {

std::uint32_t shard_of(std::uint64_t population_id,
                       std::uint32_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  // SplitMix64 finalizer: full-avalanche mix so low-entropy id schemes
  // (sequential, stride-64, ...) still spread across shards.
  std::uint64_t x = population_id + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % shard_count);
}

unsigned derive_shard_count(unsigned worker_threads) noexcept {
  const unsigned workers = std::max(1u, worker_threads);
  return std::clamp(workers / 2, 1u, 8u);
}

ShardSet::ShardSet(unsigned shard_count, unsigned total_threads,
                   std::size_t total_inflight_cap) {
  expects(shard_count >= 1, "ShardSet: shard_count must be >= 1");
  threads_per_shard_ = std::max(1u, total_threads / shard_count);
  max_inflight_per_shard_ =
      std::max<std::size_t>(1, total_inflight_cap / shard_count);
  shards_.reserve(shard_count);
  for (unsigned s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->pool = std::make_unique<runtime::ThreadPool>(threads_per_shard_);
    shards_.push_back(std::move(shard));
  }
}

ShardSet::~ShardSet() {
  // Drain before the inflight cells that queued tasks release go away.
  drain();
}

void ShardSet::drain() {
  for (auto& shard : shards_) shard->pool->shutdown();
}

std::size_t ShardSet::acquire(unsigned shard) noexcept {
  return shards_[shard]->inflight.fetch_add(1, std::memory_order_acq_rel) + 1;
}

void ShardSet::release(unsigned shard) noexcept {
  shards_[shard]->inflight.fetch_sub(1, std::memory_order_acq_rel);
}

std::future<void> ShardSet::submit(unsigned shard,
                                   std::function<void()> task) {
  return shards_[shard]->pool->submit(std::move(task));
}

void ShardSet::note_shed(unsigned shard) noexcept {
  shards_[shard]->shed.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ShardSet::total_inflight() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->inflight.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t ShardSet::shed(unsigned shard) const noexcept {
  return shards_[shard]->shed.load(std::memory_order_relaxed);
}

std::vector<ShardSet::Snapshot> ShardSet::snapshot() const {
  std::vector<Snapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const runtime::ThreadPool::Stats pool = shard->pool->stats();
    Snapshot snap;
    snap.inflight = shard->inflight.load(std::memory_order_acquire);
    snap.shed = shard->shed.load(std::memory_order_relaxed);
    snap.submitted = pool.submitted;
    snap.stolen = pool.stolen;
    out.push_back(snap);
  }
  return out;
}

}  // namespace pet::svc

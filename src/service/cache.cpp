#include "service/cache.hpp"

#include <utility>

#include "common/ensure.hpp"

namespace pet::svc {

namespace {

void hash_mix(std::size_t& h, std::uint64_t v) noexcept {
  // boost::hash_combine-style fold over a SplitMix64-mixed word.
  std::uint64_t x = v + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  h ^= static_cast<std::size_t>(x) + 0x9e3779b9u + (h << 6) + (h >> 2);
}

}  // namespace

std::size_t ResultCache::KeyHash::operator()(const Key& key) const noexcept {
  std::size_t h = 0;
  hash_mix(h, key.epoch);
  hash_mix(h, key.population_id);
  hash_mix(h, key.seed);
  hash_mix(h, key.epsilon_bits);
  hash_mix(h, key.delta_bits);
  hash_mix(h, key.deadline_slots);
  hash_mix(h, (static_cast<std::uint64_t>(key.robust) << 32) |
                  (static_cast<std::uint64_t>(key.vote_reads) << 16) |
                  key.vote_quorum);
  return h;
}

ResultCache::ResultCache(ResultCacheConfig config) : config_(config) {
  if (config_.max_entries > 0) {
    expects(config_.max_bytes > kEntryOverhead,
            "ResultCacheConfig: max_bytes too small to hold any entry");
  }
}

bool ResultCache::lookup(const Key& key, std::vector<std::uint8_t>& payload,
                         Replay& replay) {
  if (!enabled()) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  payload = it->second.payload;
  replay = it->second.replay;
  ++hits_;
  return true;
}

void ResultCache::insert(const Key& key,
                         const std::vector<std::uint8_t>& payload,
                         const Replay& replay) {
  if (!enabled()) return;
  const std::size_t cost = entry_bytes(payload);
  if (cost > config_.max_bytes) return;  // would never fit; don't thrash
  const std::lock_guard<std::mutex> lock(mutex_);

  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh in place (identical bytes for a deterministic service, but
    // keep the accounting honest either way).
    bytes_ -= entry_bytes(it->second.payload);
    it->second.payload = payload;
    it->second.replay = replay;
    bytes_ += cost;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  } else {
    lru_.push_front(key);
    Node node;
    node.payload = payload;
    node.replay = replay;
    node.lru = lru_.begin();
    map_.emplace(key, std::move(node));
    bytes_ += cost;
  }

  while (map_.size() > config_.max_entries || bytes_ > config_.max_bytes) {
    evict_one_locked();
  }
}

void ResultCache::evict_one_locked() {
  const Key victim = lru_.back();
  const auto it = map_.find(victim);
  bytes_ -= entry_bytes(it->second.payload);
  map_.erase(it);
  lru_.pop_back();
  ++evictions_;
}

ResultCacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ResultCacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.entries = map_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace pet::svc

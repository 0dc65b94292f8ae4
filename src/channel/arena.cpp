#include "channel/arena.hpp"

#include <optional>

namespace pet::chan {

SortedPetChannel& arena_sorted_pet_channel(
    const std::vector<TagId>& ids, const SortedPetChannelConfig& config) {
  // Keyed on the vector's address, which is what the channel rehashes
  // through, and on every config field but the seed, which rebuild()
  // replaces; rebuild() re-reads the contents, so they need no key.
  struct Arena {
    const std::vector<TagId>* ids = nullptr;
    unsigned tree_height = 0;
    rng::HashKind hash = rng::HashKind::kMix64;
    sim::SlotTiming timing;
    std::optional<SortedPetChannel> channel;
  };
  thread_local Arena arena;
  if (!arena.channel.has_value() || arena.ids != &ids ||
      arena.tree_height != config.tree_height || arena.hash != config.hash ||
      arena.timing != config.timing) {
    arena.channel.emplace(ids, config);
    arena.ids = &ids;
    arena.tree_height = config.tree_height;
    arena.hash = config.hash;
    arena.timing = config.timing;
  } else {
    arena.channel->rebuild(config.manufacturing_seed);
  }
  arena.channel->reset_ledger();
  return *arena.channel;
}

SampledChannel& arena_sampled_channel(std::uint64_t tag_count,
                                      std::uint64_t seed) {
  thread_local std::optional<SampledChannel> channel;
  if (!channel.has_value()) {
    channel.emplace(tag_count, seed);
  } else {
    channel->reset(tag_count, seed);
  }
  return *channel;
}

}  // namespace pet::chan

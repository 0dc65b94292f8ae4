#include "channel/arena.hpp"

#include <optional>

namespace pet::chan {

SortedPetChannel& arena_sorted_pet_channel(
    std::span<const TagId> ids, const SortedPetChannelConfig& config) {
  thread_local std::optional<SortedPetChannel> channel;
  if (!channel.has_value()) {
    channel.emplace(ids, config);
  } else {
    channel->rebuild(ids, config);
  }
  channel->reset_ledger();
  return *channel;
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

// Per-worker-thread channel arenas for TrialRunner-driven sweeps.
//
// A sweep runs thousands of independent trials whose channels differ only
// in their seed; constructing a fresh channel per trial makes allocation
// and (for SortedPetChannel) hashing + bucketing the codes the dominant
// cost of a trial.  These helpers hand each worker thread one long-lived
// channel that is re-keyed per trial — SortedPetChannel::rebuild /
// SampledChannel::reset reinstate exactly the freshly-constructed state
// while retaining every buffer, so steady-state trials allocate no
// population-sized buffer (docs/performance.md).
#pragma once

#include <cstdint>
#include <span>

#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"

namespace pet::chan {

/// Thread-local SortedPetChannel holding the codes of `ids` under
/// `config`, with a zeroed ledger: constructed on this thread's first call
/// and rebuild(ids, config) on every later one, so it has no key to match
/// and `ids` need not outlive the call.
[[nodiscard]] SortedPetChannel& arena_sorted_pet_channel(
    std::span<const TagId> ids, const SortedPetChannelConfig& config);

/// Thread-local SampledChannel (default config, which every rehash-per-
/// round baseline uses), reset to (tag_count, seed) with a zeroed ledger.
[[nodiscard]] SampledChannel& arena_sampled_channel(std::uint64_t tag_count,
                                                    std::uint64_t seed);

}  // namespace pet::chan

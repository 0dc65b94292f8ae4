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
#include <vector>

#include "channel/sampled_channel.hpp"
#include "channel/sorted_pet_channel.hpp"

namespace pet::chan {

/// Thread-local SortedPetChannel over `ids`, rebuilt (not reconstructed)
/// when only config.manufacturing_seed changed since this thread's last
/// call, with its ledger reset either way.  `ids` must stay alive while
/// trials on this thread use the returned channel (sweeps keep the
/// population alive across the whole run; the arena is keyed on the
/// vector's address plus every other config field — tree height, hash and
/// slot timing — so the stored tags pointer always equals the live vector
/// checked here and the channel bills this call's slot length).
[[nodiscard]] SortedPetChannel& arena_sorted_pet_channel(
    const std::vector<TagId>& ids, const SortedPetChannelConfig& config);

/// Thread-local SampledChannel (default config, which every rehash-per-
/// round baseline uses), reset to (tag_count, seed) with a zeroed ledger.
[[nodiscard]] SampledChannel& arena_sampled_channel(std::uint64_t tag_count,
                                                    std::uint64_t seed);

}  // namespace pet::chan

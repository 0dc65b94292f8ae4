#include "service/registry.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"
#include "rng/prng.hpp"
#include "service/shard.hpp"
#include "tags/population.hpp"

namespace pet::svc {

void PopulationStats::observe_latency_slots(std::uint64_t slots) noexcept {
  std::size_t bucket = 0;
  while (bucket < kSvcLatencySlotBounds.size() &&
         static_cast<double>(slots) > kSvcLatencySlotBounds[bucket]) {
    ++bucket;
  }
  latency_slots[bucket].fetch_add(1, std::memory_order_relaxed);
}

namespace {

std::uint64_t cell_value(const std::atomic<std::uint64_t>& cell) noexcept {
  return cell.load(std::memory_order_relaxed);
}
std::uint64_t cell_value(std::uint64_t cell) noexcept { return cell; }

/// The one list of summed cells, read from live atomics or a snapshot.
template <typename Stats>
void add_cells(PopulationStatsSnapshot& into, const Stats& from) noexcept {
  into.requests += cell_value(from.requests);
  into.ok += cell_value(from.ok);
  into.degraded += cell_value(from.degraded);
  into.truncated += cell_value(from.truncated);
  into.errors += cell_value(from.errors);
  into.shed += cell_value(from.shed);
  into.deadline_misses += cell_value(from.deadline_misses);
  into.retries += cell_value(from.retries);
  into.backoff_slots += cell_value(from.backoff_slots);
  into.query_slots += cell_value(from.query_slots);
  into.rounds += cell_value(from.rounds);
  into.rounds_planned += cell_value(from.rounds_planned);
  into.cache_hits += cell_value(from.cache_hits);
  for (std::size_t i = 0; i < into.latency_slots.size(); ++i) {
    into.latency_slots[i] += cell_value(from.latency_slots[i]);
  }
}

}  // namespace

void PopulationStatsSnapshot::accumulate(const PopulationStats& stats) noexcept {
  add_cells(*this, stats);
}

void PopulationStatsSnapshot::accumulate(
    const PopulationStatsSnapshot& other) noexcept {
  add_cells(*this, other);
}

PopulationRegistry::PopulationRegistry(RegistryConfig config, unsigned slices)
    : config_(config) {
  expects(config_.max_populations >= 1,
          "RegistryConfig: max_populations must be >= 1");
  expects(config_.tree_height >= 2 && config_.tree_height <= 64,
          "RegistryConfig: tree_height must be in [2, 64]");
  expects(slices >= 1, "PopulationRegistry: slices must be >= 1");
  slices_.reserve(slices);
  for (unsigned s = 0; s < slices; ++s) {
    slices_.push_back(std::make_unique<Slice>());
  }
}

PopulationRegistry::Slice& PopulationRegistry::slice_for(
    std::uint64_t id) noexcept {
  return *slices_[shard_of(id, static_cast<std::uint32_t>(slices_.size()))];
}

const PopulationRegistry::Slice& PopulationRegistry::slice_for(
    std::uint64_t id) const noexcept {
  return *slices_[shard_of(id, static_cast<std::uint32_t>(slices_.size()))];
}

PopulationRegistry::RegisterOutcome PopulationRegistry::register_population(
    std::uint64_t id, std::uint64_t tag_count, std::uint64_t population_seed) {
  if (tag_count > config_.max_tags_per_population) {
    return RegisterOutcome::kInvalidRequest;
  }

  // Generate tags and build the sorted channel *outside* the slice lock:
  // registration of a million-tag population must not stall lookups.  The
  // ids die with the full-expression; the channel keeps only their codes.
  auto entry = std::make_shared<Entry>();
  entry->id = id;
  chan::SortedPetChannelConfig channel_config;
  channel_config.tree_height = config_.tree_height;
  channel_config.manufacturing_seed = rng::derive_seed(population_seed, 1);
  entry->channel = std::make_unique<chan::SortedPetChannel>(
      tags::TagPopulation::generate(static_cast<std::size_t>(tag_count),
                                    population_seed)
          .ids(),
      channel_config);

  Slice& slice = slice_for(id);
  std::lock_guard lock(slice.mutex);
  if (slice.entries.find(id) != slice.entries.end()) {
    return RegisterOutcome::kAlreadyExists;
  }
  // Capacity is global across slices: claim a slot atomically, hand it back
  // if the claim overshot the cap (two racing registrations on different
  // slices cannot both squeeze past the limit).
  if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 >
      config_.max_populations) {
    count_.fetch_sub(1, std::memory_order_acq_rel);
    return RegisterOutcome::kFull;
  }
  entry->epoch = epoch_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  slice.entries.emplace(id, std::move(entry));
  return RegisterOutcome::kRegistered;
}

bool PopulationRegistry::unregister_population(std::uint64_t id) {
  Slice& slice = slice_for(id);
  std::lock_guard lock(slice.mutex);
  const auto it = slice.entries.find(id);
  if (it == slice.entries.end()) return false;
  // Fold the leaving population's totals into the retired accumulator so
  // fold_stats() (and therefore kMonitor) is monotone across churn.
  slice.retired.accumulate(it->second->stats);
  slice.entries.erase(it);
  count_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

std::shared_ptr<PopulationRegistry::Entry> PopulationRegistry::find(
    std::uint64_t id) const {
  const Slice& slice = slice_for(id);
  std::lock_guard lock(slice.mutex);
  const auto it = slice.entries.find(id);
  return it == slice.entries.end() ? nullptr : it->second;
}

std::size_t PopulationRegistry::size() const {
  return count_.load(std::memory_order_acquire);
}

PopulationStatsSnapshot PopulationRegistry::fold_stats() const {
  PopulationStatsSnapshot total;
  for (const auto& slice : slices_) {
    std::lock_guard lock(slice->mutex);
    total.accumulate(slice->retired);
    for (const auto& [id, entry] : slice->entries) {
      (void)id;
      total.accumulate(entry->stats);
    }
  }
  return total;
}

std::vector<std::pair<std::uint64_t, PopulationStatsSnapshot>>
PopulationRegistry::snapshot_stats() const {
  std::vector<std::pair<std::uint64_t, PopulationStatsSnapshot>> out;
  for (const auto& slice : slices_) {
    std::lock_guard lock(slice->mutex);
    out.reserve(out.size() + slice->entries.size());
    for (const auto& [id, entry] : slice->entries) {
      PopulationStatsSnapshot snap;
      snap.accumulate(entry->stats);
      out.emplace_back(id, snap);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace pet::svc

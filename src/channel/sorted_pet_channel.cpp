#include "channel/sorted_pet_channel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/ensure.hpp"
#include "common/radix.hpp"
#include "common/simd.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"

namespace pet::chan {

namespace {
const obs::ChannelInstruments& chan_obs() {
  static const obs::ChannelInstruments bundle("sorted");
  return bundle;
}
}  // namespace

SortedPetChannel::SortedPetChannel(const std::vector<TagId>& tags,
                                   SortedPetChannelConfig config)
    : config_(config), tags_(&tags) {
  expects(config_.tree_height >= 1 &&
              config_.tree_height <= BitCode::kMaxWidth,
          "SortedPetChannel: tree height must be in [1, 64]");
  build_codes();
}

// Hash + sort the preloaded codes: one batched hash (seed mix hoisted, SIMD
// lanes at the active pet::simd_tier()) and one LSD radix sort.  The sorted
// value array equals the element-wise uniform_code + std::sort result, so
// every probe answer is unchanged (tests/fastpath_test.cpp,
// tests/simd_parity_test.cpp).
void SortedPetChannel::build_codes() {
  // The pet.build.* bundle costs one clock pair per *build*, not per
  // element, and only while counters are on (the obs hot-path budget).
  using Clock = std::chrono::steady_clock;
  const bool timed = obs::counters_enabled();
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
  rng::uniform_code_batch(config_.hash, config_.manufacturing_seed, *tags_,
                          config_.tree_height, code_values_);
  const Clock::time_point t1 = timed ? Clock::now() : Clock::time_point{};
  radix_sort_u64(code_values_, sort_scratch_, config_.tree_height);
  if (!timed) return;
  const Clock::time_point t2 = Clock::now();
  const auto us = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  const obs::BuildInstruments& bi = obs::build_instruments();
  bi.builds.add();
  bi.codes.add(code_values_.size());
  bi.hash_us.add(us(t1 - t0));
  bi.sort_us.add(us(t2 - t1));
  bi.simd_lanes.set(simd_lanes(simd_tier()));
  bi.partition_workers.set(1);  // deprecated: a build never fans out
}

void SortedPetChannel::rebuild(std::uint64_t manufacturing_seed) {
  flush_obs();
  config_.manufacturing_seed = manufacturing_seed;
  round_open_ = false;
  depth_valid_ = false;
  build_codes();
}

SortedPetChannel::~SortedPetChannel() {
  // Publish the slots accounted since the last round boundary; without this
  // the final round of every estimate would be missing from the registry.
  try {
    flush_obs();
  } catch (...) {
    // Registration can throw (registry capacity); counts are best-effort
    // here and a throwing destructor would be worse than a short snapshot.
  }
}

// This channel is the large-sweep hot path, so unlike the other back ends
// it records nothing per slot: query_prefix only mutates the ledger (which
// it does anyway), and the obs mirror is brought up to date by diffing the
// ledger against the last published state at round boundaries.  Totals are
// identical to per-slot recording -- the mirror is a sum either way -- and
// the disabled path through query_prefix carries no obs code at all (the
// <= 2% overhead budget, bench/micro_ops BM_PetRoundObsOff).  The trace
// logical clock consequently advances at round granularity on this backend.
void SortedPetChannel::flush_obs() {
  if (!obs::counters_enabled()) {
    // Forget anything accounted while disabled so a later enable does not
    // retroactively publish slots from the disabled era.
    obs_published_ = ledger_;
    return;
  }
  const std::uint64_t idle = ledger_.idle_slots - obs_published_.idle_slots;
  const std::uint64_t single =
      ledger_.singleton_slots - obs_published_.singleton_slots;
  const std::uint64_t coll =
      ledger_.collision_slots - obs_published_.collision_slots;
  const std::uint64_t slots = idle + single + coll;
  if (slots != 0 || ledger_.reader_bits != obs_published_.reader_bits ||
      ledger_.retry_slots != obs_published_.retry_slots) {
    const obs::LedgerInstruments& li = obs::ledger_instruments();
    li.idle_slots.add(idle);
    li.singleton_slots.add(single);
    li.collision_slots.add(coll);
    li.retry_slots.add(ledger_.retry_slots - obs_published_.retry_slots);
    li.reader_bits.add(ledger_.reader_bits - obs_published_.reader_bits);
    li.tag_bits.add(ledger_.tag_bits - obs_published_.tag_bits);
    chan_obs().probe_slots.add(slots);
    chan_obs().busy_slots.add(single + coll);
    if (obs::full_enabled()) obs::advance_trace_slots(slots);
  }
  obs_published_ = ledger_;
}

void SortedPetChannel::begin_round(const RoundConfig& round) {
  expects(round.path.width() == config_.tree_height,
          "begin_round: path width must equal the tree height H");
  expects(!round.tags_rehash,
          "SortedPetChannel supports preloaded-code mode only (Algorithm 4); "
          "use ExactChannel or DeviceChannel for per-round rehashing");
  path_value_ = round.path.value();
  query_bits_ = round.query_bits;
  round_open_ = true;
  depth_valid_ = false;
  flush_obs();
  ledger_.reader_bits += round.begin_bits;
  if (obs::counters_enabled()) chan_obs().rounds.add();
}

// One insertion-point lookup locates the sorted neighborhood of the path
// value; the deepest busy prefix is then the longer of the path's LCPs with
// its two neighbors.  (For any query, the longest-common-prefix maximum
// over a sorted array is attained at an element adjacent to the query's
// insertion point: every other element differs from the query at or before
// the bit where its nearer neighbor does.)
void SortedPetChannel::ensure_depth() {
  if (depth_valid_) return;
  expects(round_open_, "round_depth before begin_round");
  const unsigned height = config_.tree_height;
  const auto lcp = [height](std::uint64_t a, std::uint64_t b) noexcept {
    const std::uint64_t x = a ^ b;
    if (x == 0) return height;
    // Codes occupy the low H bits; string bit 0 is value bit H-1.
    return static_cast<unsigned>(std::countl_zero(x)) -
           (BitCode::kMaxWidth - height);
  };
  const auto first = std::lower_bound(code_values_.begin(),
                                      code_values_.end(), path_value_);
  pos_ = static_cast<std::size_t>(first - code_values_.begin());
  unsigned depth = 0;
  if (pos_ < code_values_.size()) {
    depth = lcp(code_values_[pos_], path_value_);
  }
  if (pos_ > 0) {
    depth = std::max(depth, lcp(code_values_[pos_ - 1], path_value_));
  }
  depth_ = depth;
  depth_valid_ = true;
}

unsigned SortedPetChannel::round_depth() {
  ensure_depth();
  return depth_;
}

bool SortedPetChannel::query_prefix(unsigned len) {
  expects(round_open_, "query_prefix before begin_round");
  expects(len <= config_.tree_height, "query_prefix: len exceeds H");

  std::size_t responders;
  if (len == 0) {
    responders = code_values_.size();
  } else {
    const unsigned shift = config_.tree_height - len;
    const std::uint64_t lo = (path_value_ >> shift) << shift;
    const auto first = std::lower_bound(code_values_.begin(),
                                        code_values_.end(), lo);
    // hi wraps to 0 exactly when the probed range reaches the top of the
    // code space (all-ones prefix with H == 64); the range then extends to
    // the end of the array.
    const std::uint64_t hi = lo + (std::uint64_t{1} << shift);
    const auto last = (hi == 0)
                          ? code_values_.end()
                          : std::lower_bound(first, code_values_.end(), hi);
    responders = static_cast<std::size_t>(last - first);
  }

  account_probe(responders);
  return responders > 0;
}

// Synthesized probe: the busy verdict comes from the round depth (busy iff
// len <= d, n >= 1), so idle probes are answered without any search, and
// busy probes count responders with searches bounded by the insertion
// point pos_ (the matching range always brackets it).  The accounting call
// is the same one query_prefix makes -- one call per probe with the same
// addends -- so ledger totals, including the floating-point airtime sum,
// are bit-identical.
bool SortedPetChannel::synth_probe(unsigned len) {
  expects(round_open_, "synth_probe before begin_round");
  expects(len <= config_.tree_height, "synth_probe: len exceeds H");
  ensure_depth();

  std::size_t responders;
  if (len == 0) {
    responders = code_values_.size();
  } else if (code_values_.empty() || len > depth_) {
    responders = 0;
  } else {
    const unsigned shift = config_.tree_height - len;
    const std::uint64_t lo = (path_value_ >> shift) << shift;
    // lo <= path_value_ < hi, so the matching range's bounds straddle pos_:
    // search only [begin, pos_) for the left edge and [pos_, end) for the
    // right edge.
    const auto first = std::lower_bound(code_values_.begin(),
                                        code_values_.begin() +
                                            static_cast<std::ptrdiff_t>(pos_),
                                        lo);
    const std::uint64_t hi = lo + (std::uint64_t{1} << shift);
    const auto last =
        (hi == 0) ? code_values_.end()
                  : std::lower_bound(code_values_.begin() +
                                         static_cast<std::ptrdiff_t>(pos_),
                                     code_values_.end(), hi);
    responders = static_cast<std::size_t>(last - first);
  }

  account_probe(responders);
  return responders > 0;
}

void SortedPetChannel::account_probe(std::size_t responders) noexcept {
  if (responders == 0) {
    ++ledger_.idle_slots;
  } else if (responders == 1) {
    ++ledger_.singleton_slots;
  } else {
    ++ledger_.collision_slots;
  }
  ledger_.reader_bits += query_bits_;
  ledger_.tag_bits += responders;
  ledger_.airtime_us += config_.timing.slot_us();
}

}  // namespace pet::chan

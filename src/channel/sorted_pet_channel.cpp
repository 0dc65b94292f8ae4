#include "channel/sorted_pet_channel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>
#include <span>

#include "common/ensure.hpp"
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

SortedPetChannel::SortedPetChannel(std::span<const TagId> ids,
                                   SortedPetChannelConfig config) {
  build_codes(ids, config);
}

// File the preloaded codes by bucket: a bucket is the set of codes sharing
// their top b bits.  Pass 1 counts codes per bucket and prefix-sums the
// counts, so bucket_start_[k] ends bucket k; pass 2 places each code at its
// bucket's end cursor, decrementing it, so bucket_start_[k] ends up where
// bucket k starts.  Both passes hash the ids in L1-sized chunks with the
// batched hash (seed mix hoisted, SIMD lanes at the active
// pet::simd_tier()), so no n-sized scratch exists beside code_values_.
// Order inside a bucket is irrelevant: every query counts or takes a
// maximum over a whole bucket (tests/fastpath_test.cpp pins every answer
// against codes hashed one id at a time).  Both checks run before any
// member changes, so a refused rebuild leaves the channel as it was.
void SortedPetChannel::build_codes(std::span<const TagId> ids,
                                   const SortedPetChannelConfig& config) {
  expects(config.tree_height >= 1 && config.tree_height <= BitCode::kMaxWidth,
          "SortedPetChannel: tree height must be in [1, 64]");
  const std::size_t n = ids.size();
  expects(n <= UINT32_MAX, "SortedPetChannel: at most 2^32 - 1 tags");
  config_ = config;

  // The pet.build.* bundle costs one clock pair per *build*, not per
  // element, and only while counters are on (the obs hot-path budget).
  using Clock = std::chrono::steady_clock;
  const bool timed = obs::counters_enabled();
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};

  const unsigned height = config_.tree_height;
  // 16-32 codes per bucket on average, at most 2^16 + 1 offsets.
  bucket_bits_ = static_cast<unsigned>(
      std::clamp(static_cast<int>(std::bit_width(n)) - 5, 1,
                 static_cast<int>(std::min(height, 16u))));
  const unsigned shift = height - bucket_bits_;
  bucket_start_.assign((std::size_t{1} << bucket_bits_) + 1, 0);
  code_values_.resize(n);

  constexpr std::size_t kChunk = 1024;
  std::vector<std::uint64_t> chunk;
  const auto for_each_chunk = [&](auto&& visit) {
    for (std::size_t begin = 0; begin < n; begin += kChunk) {
      rng::uniform_code_batch(config_.hash, config_.manufacturing_seed,
                              ids.subspan(begin, std::min(kChunk, n - begin)),
                              height, chunk);
      visit(chunk);
    }
  };
  std::uint32_t* const start = bucket_start_.data();
  for_each_chunk([start, shift](const std::vector<std::uint64_t>& codes) {
    for (const std::uint64_t code : codes) ++start[code >> shift];
  });
  // The last entry counts nothing, so the inclusive sum leaves it at n.
  std::partial_sum(bucket_start_.begin(), bucket_start_.end(),
                   bucket_start_.begin());
  const Clock::time_point t1 = timed ? Clock::now() : Clock::time_point{};
  // The 2^b cursors write all over code_values_, so most stores miss L1;
  // prefetching the slot of the code kAhead places later overlaps those
  // misses.  A cursor of a code still to be placed is >= 1, so the address
  // stays inside the array.
  constexpr std::size_t kAhead = 8;
  std::uint64_t* const out = code_values_.data();
  for_each_chunk([start, shift, out](const std::vector<std::uint64_t>& codes) {
    const std::size_t count = codes.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (i + kAhead < count) {
        __builtin_prefetch(out + start[codes[i + kAhead] >> shift] - 1, 1);
      }
      out[--start[codes[i] >> shift]] = codes[i];
    }
  });
  if (!timed) return;
  const Clock::time_point t2 = Clock::now();
  const auto us = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  const obs::BuildInstruments& bi = obs::build_instruments();
  bi.builds.add();
  bi.codes.add(n);
  bi.hash_us.add(us(t1 - t0));  // the counting pass
  bi.sort_us.add(us(t2 - t1));  // the placement pass
  bi.simd_lanes.set(simd_lanes(simd_tier()));
  bi.partition_workers.set(1);  // deprecated: a build never fans out
}

void SortedPetChannel::rebuild(std::span<const TagId> ids,
                               const SortedPetChannelConfig& config) {
  flush_obs();
  round_open_ = false;
  depth_valid_ = false;
  build_codes(ids, config);
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

// The path's bucket holds every code that shares the path's top b bits, and
// those codes' LCPs with the path are all >= b, so when it is non-empty the
// maximum is attained inside it.  When it is empty, every code differs from
// the path within the top b bits, so its LCP depends only on its bucket
// index; in bucket order that LCP grows toward the path's bucket from either
// side, so the maximum is attained by the code just before the empty range
// or the one just after it.  Scanning the bucket plus one code on each side
// covers both cases.  max lcp = H - bit_width(min (code ^ path)), and the
// all-ones start value leaves depth 0 for n == 0.
void SortedPetChannel::ensure_depth() {
  if (depth_valid_) return;
  expects(round_open_, "query_prefix or round_depth before begin_round");
  const unsigned height = config_.tree_height;
  const std::uint64_t bucket = path_value_ >> (height - bucket_bits_);
  const std::size_t first = bucket_start_[bucket];
  const std::size_t last = bucket_start_[bucket + 1];
  const std::size_t lo = first == 0 ? 0 : first - 1;
  const std::size_t hi = std::min(last + 1, code_values_.size());
  std::uint64_t nearest = ~std::uint64_t{0} >> (BitCode::kMaxWidth - height);
  for (std::size_t i = lo; i < hi; ++i) {
    nearest = std::min(nearest, code_values_[i] ^ path_value_);
  }
  depth_ = height - static_cast<unsigned>(std::bit_width(nearest));
  depth_valid_ = true;
  counted_len_ = kNoLen;
}

unsigned SortedPetChannel::round_depth() {
  ensure_depth();
  return depth_;
}

// Codes under the path's len-bit prefix p.  For len <= b they fill exactly
// the buckets [p * 2^(b-len), (p+1) * 2^(b-len)), so the count is one
// offset difference; for len > b they all sit in the path's bucket.
std::size_t SortedPetChannel::responders(unsigned len) const noexcept {
  if (len == 0) return code_values_.size();
  const unsigned height = config_.tree_height;
  if (len <= bucket_bits_) {
    const unsigned spread = bucket_bits_ - len;
    const std::uint64_t first = (path_value_ >> (height - len)) << spread;
    return bucket_start_[first + (std::uint64_t{1} << spread)] -
           bucket_start_[first];
  }
  const unsigned shift = height - len;
  const std::uint64_t bucket = path_value_ >> (height - bucket_bits_);
  const std::size_t last = bucket_start_[bucket + 1];
  std::size_t count = 0;
  for (std::size_t i = bucket_start_[bucket]; i < last; ++i) {
    count += static_cast<std::size_t>(
        ((code_values_[i] ^ path_value_) >> shift) == 0);
  }
  return count;
}

// A probe is busy iff len <= d (n >= 1), so an idle probe is answered
// without touching the codes, and a busy one counts its responders.  The
// count of the last busy len is kept for the round: a vote re-reads each
// probe back to back, and for len > b a count is a scan of the path's
// bucket.  Every probe makes one account_probe call with its count, so the
// ledger, airtime sum included, is the one a count per probe would give.
bool SortedPetChannel::query_prefix(unsigned len) {
  expects(round_open_, "query_prefix before begin_round");
  expects(len <= config_.tree_height, "query_prefix: len exceeds H");
  ensure_depth();
  if (len <= depth_ && len != counted_len_) {
    counted_len_ = len;
    counted_ = responders(len);
  }
  const std::size_t count = len > depth_ ? 0 : counted_;
  account_probe(count);
  return count > 0;
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

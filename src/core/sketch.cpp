#include "core/sketch.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "core/theory.hpp"

namespace pet::core {

PetSketch PetSketch::take(chan::PrefixChannel& channel,
                          const PetConfig& config, std::uint64_t rounds,
                          std::uint64_t sketch_seed) {
  config.validate();
  expects(rounds >= 1, "PetSketch::take needs at least one round");
  expects(!config.tags_rehash,
          "sketches require the preloaded-code mode: merging depends on a "
          "shared code universe across readers and across time");

  const PetEstimator estimator(config, stats::AccuracyRequirement{0.5, 0.5});
  std::vector<unsigned> depths;
  depths.reserve(rounds);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    // PetEstimator's own rounds: sketches taken with the same seed probe
    // the same paths in the same order as an estimate with that seed.
    const auto depth = estimator.run_round(channel, sketch_seed, i);
    // A verifiably empty region contributes depth 0: the identity of the
    // element-wise max.
    depths.push_back(depth.value_or(0));
  }
  return PetSketch(sketch_seed, config.tree_height, std::move(depths));
}

PetSketch::PetSketch(std::uint64_t sketch_seed, unsigned tree_height,
                     std::vector<unsigned> depths)
    : seed_(sketch_seed), tree_height_(tree_height),
      depths_(std::move(depths)) {
  expects(tree_height_ >= 2 && tree_height_ <= 64,
          "PetSketch: tree height must be in [2, 64]");
  expects(!depths_.empty(), "PetSketch: needs at least one round");
  for (const unsigned d : depths_) {
    expects(d <= tree_height_, "PetSketch: depth exceeds tree height");
  }
}

double PetSketch::estimate() const {
  double sum = 0.0;
  for (const unsigned d : depths_) sum += static_cast<double>(d);
  return estimate_from_mean_depth(sum / static_cast<double>(depths_.size()));
}

PetSketch PetSketch::merge_union(const PetSketch& a, const PetSketch& b) {
  expects(a.mergeable_with(b),
          "PetSketch::merge_union: sketches must share seed, tree height "
          "and round count");
  std::vector<unsigned> merged(a.depths_.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    merged[i] = std::max(a.depths_[i], b.depths_[i]);
  }
  return PetSketch(a.seed_, a.tree_height_, std::move(merged));
}

double PetSketch::estimate_intersection(const PetSketch& a,
                                        const PetSketch& b) {
  const double u = merge_union(a, b).estimate();
  const double overlap = a.estimate() + b.estimate() - u;
  return overlap > 0.0 ? overlap : 0.0;
}

namespace {

unsigned depth_bits_for(unsigned tree_height) noexcept {
  unsigned bits = 0;
  while ((1u << bits) < tree_height + 1) ++bits;
  return bits;
}

}  // namespace

std::uint64_t PetSketch::wire_bits() const noexcept {
  return 64 /*seed*/ + 8 /*height*/ +
         depths_.size() * depth_bits_for(tree_height_);
}

std::vector<std::uint8_t> PetSketch::serialize() const {
  const unsigned bits = depth_bits_for(tree_height_);
  std::vector<std::uint8_t> out;
  out.reserve(13 + (depths_.size() * bits + 7) / 8);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((seed_ >> (8 * i)) & 0xff));
  }
  out.push_back(static_cast<std::uint8_t>(tree_height_));
  const auto count = static_cast<std::uint32_t>(depths_.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((count >> (8 * i)) & 0xff));
  }
  // LSB-first bit packing of the depths.
  std::uint32_t accumulator = 0;
  unsigned filled = 0;
  for (const unsigned d : depths_) {
    accumulator |= d << filled;
    filled += bits;
    while (filled >= 8) {
      out.push_back(static_cast<std::uint8_t>(accumulator & 0xff));
      accumulator >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) out.push_back(static_cast<std::uint8_t>(accumulator & 0xff));
  return out;
}

PetSketch PetSketch::deserialize(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 13) {
    throw ConfigError("PetSketch::deserialize: truncated header");
  }
  std::uint64_t seed = 0;
  for (int i = 7; i >= 0; --i) {
    seed = (seed << 8) | bytes[static_cast<std::size_t>(i)];
  }
  const unsigned height = bytes[8];
  if (height < 2 || height > 64) {
    throw ConfigError("PetSketch::deserialize: bad tree height");
  }
  std::uint32_t count = 0;
  for (int i = 3; i >= 0; --i) {
    count = (count << 8) | bytes[9 + static_cast<std::size_t>(i)];
  }
  if (count == 0) {
    throw ConfigError("PetSketch::deserialize: empty sketch");
  }
  const unsigned bits = depth_bits_for(height);
  const std::size_t payload = (static_cast<std::size_t>(count) * bits + 7) / 8;
  if (bytes.size() != 13 + payload) {
    throw ConfigError("PetSketch::deserialize: length mismatch");
  }

  std::vector<unsigned> depths;
  depths.reserve(count);
  std::uint32_t accumulator = 0;
  unsigned filled = 0;
  std::size_t cursor = 13;
  const std::uint32_t mask = (1u << bits) - 1;
  for (std::uint32_t i = 0; i < count; ++i) {
    while (filled < bits) {
      accumulator |= static_cast<std::uint32_t>(bytes[cursor++]) << filled;
      filled += 8;
    }
    const unsigned d = accumulator & mask;
    if (d > height) {
      throw ConfigError("PetSketch::deserialize: depth exceeds tree height");
    }
    depths.push_back(d);
    accumulator >>= bits;
    filled -= bits;
  }
  return PetSketch(seed, height, std::move(depths));
}

}  // namespace pet::core

#include "common/radix.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

namespace pet {

void radix_sort_u64(std::vector<std::uint64_t>& values,
                    std::vector<std::uint64_t>& scratch,
                    unsigned key_bits) {
  const std::size_t n = values.size();
  if (n < 2) return;
  scratch.resize(n);
  const unsigned digits = (std::min(key_bits, 64u) + 7) / 8;

  // One read pass builds all live digit histograms at once; scatter passes
  // then run only for digits that actually discriminate.
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const std::uint64_t v : values) {
    for (unsigned d = 0; d < digits; ++d) {
      ++counts[d][(v >> (8 * d)) & 0xff];
    }
  }

  std::uint64_t* src = values.data();
  std::uint64_t* dst = scratch.data();
  for (unsigned d = 0; d < digits; ++d) {
    std::array<std::uint32_t, 256>& count = counts[d];
    const std::uint32_t first_bucket = count[(src[0] >> (8 * d)) & 0xff];
    if (first_bucket == n) continue;  // digit constant: pass is a no-op

    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = src[i];
      dst[count[(v >> (8 * d)) & 0xff]++] = v;
    }
    std::swap(src, dst);
  }

  if (src != values.data()) {
    // Odd number of scatter passes: the sorted run lives in scratch.
    values.swap(scratch);
  }
}

}  // namespace pet

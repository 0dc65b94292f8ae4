// LSD radix sort for 64-bit keys.  Produces exactly the permutation
// std::sort would (keys are totally ordered, so any correct sort agrees),
// at O(n) per 8-bit digit pass instead of O(n log n) comparisons.
// It serves petverify's build-identity check, bench/ablation_scaling's
// golden checksum and the construction microbenchmarks; SortedPetChannel
// files its codes into buckets instead of sorting them
// (docs/performance.md).
//
// Digit passes whose byte is constant across all keys are skipped, so
// H-bit PET codes (value range [0, 2^H)) pay only ceil(H/8) scatter passes.
// The caller owns the scratch buffer, so repeated sorts can reuse both
// allocations.
#pragma once

#include <cstdint>
#include <vector>

namespace pet {

/// Sort `values` ascending in place.  `scratch` is resized to
/// values.size() and its previous contents are destroyed.  `key_bits` is an
/// optional promise that every value fits in the low `key_bits` bits
/// (values outside it make the result unspecified); passing the PET tree
/// height H caps both histogram and scatter work at ceil(H/8) digit passes.
void radix_sort_u64(std::vector<std::uint64_t>& values,
                    std::vector<std::uint64_t>& scratch,
                    unsigned key_bits = 64);

}  // namespace pet

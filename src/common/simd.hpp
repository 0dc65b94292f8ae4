// Process-wide SIMD dispatch tier for the batch hashing kernels
// (src/rng/hash_simd.cpp, docs/performance.md).
//
// Every vectorized site is bit-identical to the scalar code it replaces —
// the mix64 finalizer is pure 64-bit integer arithmetic, so lane width
// cannot change a single output bit.  The switch exists so the tiers can be
// A/B-compared on one build (tests/simd_parity_test.cpp, repro claim 9).
//
// The active tier is min(detected, cap): detection probes the CPU once at
// startup (AVX-512DQ > AVX2 on x86-64, scalar otherwise); the cap defaults
// to the PET_SIMD environment variable and can be moved at run time with
// set_simd.  PET_SIMD accepts off|scalar|0, avx2, avx512, and auto (the
// default); any other value (the retired `neon` included) means full
// detection.  Requesting a tier the CPU lacks clamps to what is actually
// supported.
#pragma once

#include <cstdint>
#include <string_view>

namespace pet {

enum class SimdTier : std::uint8_t {
  kScalar = 0,  ///< portable scalar loop (always available)
  kAvx2 = 1,    ///< x86-64 AVX2, 4 x 64-bit lanes (emulated 64-bit multiply)
  kAvx512 = 2,  ///< x86-64 AVX-512F+DQ, 8 x 64-bit lanes (native multiply)
};

[[nodiscard]] std::string_view to_string(SimdTier tier) noexcept;

/// Number of 64-bit lanes a tier processes per vector: 1, 4, or 8.
[[nodiscard]] unsigned simd_lanes(SimdTier tier) noexcept;

/// Highest tier this CPU supports (probed once, constant thereafter).
[[nodiscard]] SimdTier detected_simd_tier() noexcept;

/// Tier the kernels actually dispatch on: min(detected, cap).
[[nodiscard]] SimdTier simd_tier() noexcept;

/// Cap the dispatch tier process-wide (clamped to the detected tier).
void set_simd(SimdTier cap) noexcept;

/// Convenience switch: false pins kScalar, true restores full detection.
void set_simd(bool enabled) noexcept;

}  // namespace pet

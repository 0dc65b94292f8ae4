// SIMD tiers for the kMix64 batch hash (see hash_simd.hpp).
//
// The SplitMix64 finalizer is three multiply/xor-shift rounds of pure
// 64-bit modular arithmetic, so a w-lane vector evaluation is the same
// function as w scalar evaluations — there is no rounding or reassociation
// to diverge on.  AVX-512DQ has a native 64-bit low multiply
// (vpmullq, 8 lanes); AVX2 emulates it from 32x32 partial products
// (lo*lo + ((hi*lo + lo*hi) << 32), the carry-free schoolbook form).
//
// Per-function target attributes keep the AVX encodings out of every other
// translation unit, so the dispatcher can run on any x86-64.
#include "rng/hash_simd.hpp"

#include "common/simd.hpp"
#include "rng/prng.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace pet::rng::detail {

namespace {

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMixA = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kMixB = 0x94d049bb133111ebULL;

inline void scalar_tail(std::uint64_t seed_mix, const std::uint64_t* ids,
                        std::size_t begin, std::size_t n, unsigned shift,
                        std::uint64_t* out) noexcept {
  for (std::size_t i = begin; i < n; ++i) {
    out[i] = mix64(seed_mix ^ mix64(ids[i])) >> shift;
  }
}

#if defined(__x86_64__) || defined(_M_X64)

// The vector-typed helpers below are only called between functions carrying
// the same target attribute, so the ABI caveat GCC raises for the TU's
// non-AVX baseline never applies.
#pragma GCC diagnostic ignored "-Wpsabi"

__attribute__((target("avx2"))) inline __m256i mul64_avx2(
    __m256i a, __m256i b, __m256i b_hi) noexcept {
  // a*b mod 2^64 from 32-bit partial products; the hi*hi term shifts out.
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i mix64_avx2(
    __m256i z, __m256i gamma, __m256i mul_a, __m256i mul_a_hi, __m256i mul_b,
    __m256i mul_b_hi) noexcept {
  z = _mm256_add_epi64(z, gamma);
  z = mul64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), mul_a,
                 mul_a_hi);
  z = mul64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), mul_b,
                 mul_b_hi);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

__attribute__((target("avx2"))) void hash_avx2(std::uint64_t seed_mix,
                                               const std::uint64_t* ids,
                                               std::size_t n, unsigned shift,
                                               std::uint64_t* out) noexcept {
  const __m256i gamma = _mm256_set1_epi64x(static_cast<long long>(kGamma));
  const __m256i mul_a = _mm256_set1_epi64x(static_cast<long long>(kMixA));
  const __m256i mul_a_hi = _mm256_srli_epi64(mul_a, 32);
  const __m256i mul_b = _mm256_set1_epi64x(static_cast<long long>(kMixB));
  const __m256i mul_b_hi = _mm256_srli_epi64(mul_b, 32);
  const __m256i seed = _mm256_set1_epi64x(static_cast<long long>(seed_mix));
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i id =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    const __m256i inner =
        mix64_avx2(id, gamma, mul_a, mul_a_hi, mul_b, mul_b_hi);
    const __m256i h = mix64_avx2(_mm256_xor_si256(seed, inner), gamma, mul_a,
                                 mul_a_hi, mul_b, mul_b_hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_srl_epi64(h, count));
  }
  scalar_tail(seed_mix, ids, i, n, shift, out);
}

__attribute__((target("avx512f,avx512dq"))) inline __m512i mix64_avx512(
    __m512i z, __m512i gamma, __m512i mul_a, __m512i mul_b) noexcept {
  z = _mm512_add_epi64(z, gamma);
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         mul_a);
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         mul_b);
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

__attribute__((target("avx512f,avx512dq"))) void hash_avx512(
    std::uint64_t seed_mix, const std::uint64_t* ids, std::size_t n,
    unsigned shift, std::uint64_t* out) noexcept {
  const __m512i gamma = _mm512_set1_epi64(static_cast<long long>(kGamma));
  const __m512i mul_a = _mm512_set1_epi64(static_cast<long long>(kMixA));
  const __m512i mul_b = _mm512_set1_epi64(static_cast<long long>(kMixB));
  const __m512i seed = _mm512_set1_epi64(static_cast<long long>(seed_mix));
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i id = _mm512_loadu_si512(ids + i);
    const __m512i inner = mix64_avx512(id, gamma, mul_a, mul_b);
    const __m512i h =
        mix64_avx512(_mm512_xor_si512(seed, inner), gamma, mul_a, mul_b);
    _mm512_storeu_si512(out + i, _mm512_srl_epi64(h, count));
  }
  scalar_tail(seed_mix, ids, i, n, shift, out);
}

#endif

}  // namespace

bool mix64_code_batch_simd(std::uint64_t seed_mix, const std::uint64_t* ids,
                           std::size_t n, unsigned width, std::uint64_t* out) {
  const unsigned shift = 64 - width;  // width 64 -> shift 0, a lane no-op
  switch (simd_tier()) {
#if defined(__x86_64__) || defined(_M_X64)
    case SimdTier::kAvx512:
      hash_avx512(seed_mix, ids, n, shift, out);
      return true;
    case SimdTier::kAvx2:
      hash_avx2(seed_mix, ids, n, shift, out);
      return true;
#endif
    default:
      return false;  // scalar tier, or a tier this arch cannot run
  }
}

}  // namespace pet::rng::detail

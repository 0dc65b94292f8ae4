#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace pet {

namespace {

SimdTier probe_cpu() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    return SimdTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
  return SimdTier::kScalar;
#else
  return SimdTier::kScalar;
#endif
}

SimdTier env_cap() noexcept {
  const char* env = std::getenv("PET_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0 ||
      std::strcmp(env, "on") == 0 || env[0] == '\0') {
    return SimdTier::kAvx512;  // no cap: detection decides
  }
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "scalar") == 0) {
    return SimdTier::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) return SimdTier::kAvx2;
  if (std::strcmp(env, "avx512") == 0) return SimdTier::kAvx512;
  // Unrecognized values fall back to full detection rather than silently
  // disabling the fast path.
  return SimdTier::kAvx512;
}

std::atomic<SimdTier>& cap() noexcept {
  static std::atomic<SimdTier> value{env_cap()};
  return value;
}

}  // namespace

std::string_view to_string(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kAvx512: return "avx512";
  }
  return "unknown";
}

unsigned simd_lanes(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar: return 1;
    case SimdTier::kAvx2: return 4;
    case SimdTier::kAvx512: return 8;
  }
  return 1;
}

SimdTier detected_simd_tier() noexcept {
  static const SimdTier detected = probe_cpu();
  return detected;
}

SimdTier simd_tier() noexcept {
  const SimdTier detected = detected_simd_tier();
  const SimdTier limit = cap().load(std::memory_order_relaxed);
  return limit < detected ? limit : detected;
}

void set_simd(SimdTier tier) noexcept {
  cap().store(tier, std::memory_order_relaxed);
}

void set_simd(bool enabled) noexcept {
  set_simd(enabled ? SimdTier::kAvx512 : SimdTier::kScalar);
}

}  // namespace pet

// perf_ledger workloads (bench/perf/README.md explains why each exists):
//
//   sweep       in-process table3 grid on the TrialRunner at 4 threads
//   wire_cold   petd, every estimate a cache miss, 4 connections depth 1
//   wire_hot    petd, every estimate a cache hit, 4 connections depth 8
//   wire_churn  petd, cached reads beside register/unregister writes
#pragma once

#include <cstdint>
#include <string>

#include "ledger.hpp"
#include "sim/gen2_timing.hpp"

namespace pet::perf {

struct RunConfig {
  std::uint64_t seed = 1;   ///< derives every population/request seed
  double seconds = 20.0;    ///< timed window
  double warmup_s = 2.0;    ///< untimed load before the window (wire only)
  unsigned setup_reps = 5;  ///< set-ups per run; setup_s is their median
  /// Traced run: the window is split into an untraced half and a traced
  /// half (their throughput ratio is trace_overhead), spans go to `spans`,
  /// and the microbenches run afterwards.
  SpanLog* spans = nullptr;
  std::string petd_path;
  std::string golden_path;  ///< bench/golden/BENCH_table3_pet_slots.json
  std::string work_dir;     ///< where the private petd socket directory goes

  [[nodiscard]] bool traced() const noexcept { return spans != nullptr; }
};

/// petd's pinned flags (besides --socket).
inline constexpr const char* kPetdFlags[] = {"--threads=4",
                                             "--flight-capacity=8192",
                                             "--quiet"};

void run_sweep(const RunConfig& config, WorkloadResult& result);

enum class WireWorkload { kCold, kHot, kChurn };
void run_wire(WireWorkload workload, const RunConfig& config,
              WorkloadResult& result);

/// One timed call per public layer function that no workload reaches
/// directly (hash, sort, tag generation, registration, robust estimate,
/// in-process handle, codec).  Traced runs only.
void run_microbenches(const RunConfig& config, WorkloadResult& result);

/// Air time of one PET query slot on a Gen2 reader (default link profile,
/// 32-bit Select mask): the denominator of cpu_per_air, the same for every
/// workload.
[[nodiscard]] inline double air_slot_us() {
  return static_cast<double>(
      sim::gen2_slot_timing(sim::Gen2LinkConfig{}, 32).slot_us());
}

/// Throughput change from the untraced to the traced half, in percent of
/// the untraced throughput.
[[nodiscard]] inline double trace_overhead_percent(double untraced_ops_s,
                                                   double traced_ops_s) {
  return untraced_ops_s > 0.0
             ? 100.0 * (untraced_ops_s - traced_ops_s) / untraced_ops_s
             : 0.0;
}

}  // namespace pet::perf

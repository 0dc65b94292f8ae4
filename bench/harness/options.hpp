// Shared command-line handling for the table/figure harness binaries.
//
// Every harness accepts:
//   --runs=N     repetitions per data point (default 300, the paper's setup)
//   --quick      shrink runs to 30 for smoke testing
//   --csv        machine-readable output instead of aligned tables
//   --seed=S     master seed (default 1)
//   --threads=T  worker threads for the trial runner (default: hardware
//                concurrency; --threads=1 reproduces the serial behaviour —
//                results are bit-identical either way, see docs/runtime.md)
//   --quiet      suppress the stderr progress meter
//   --json=PATH  where to write the BENCH_<target>.json result artifact
//                (default: BENCH_<target>.json in the working directory)
//   --obs=LEVEL  observability level off|counters|full (default counters);
//                counters and above embed a "metrics" section in the JSON
//                artifact.  Deterministic fields are unaffected by the
//                level (docs/observability.md).
//   --help       usage
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pet::bench {

struct BenchOptions {
  std::uint64_t runs = 300;
  bool csv = false;
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  bool quiet = false;
  std::string json;  ///< empty = default BENCH_<target>.json
  obs::Level obs_level = obs::Level::kCounters;

  /// Parse argv; prints usage and exits(0) on --help, exits(2) on unknown
  /// arguments.  Also configures runtime::global_runner() with the chosen
  /// thread count and progress setting — the one call every bench makes
  /// before running trials.
  static BenchOptions parse(int argc, char** argv,
                            const std::string& description);
};

}  // namespace pet::bench

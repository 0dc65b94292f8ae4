#include "harness/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string_view>

#include "common/parse_number.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "runtime/cancel.hpp"
#include "runtime/trial_runner.hpp"

namespace pet::bench {

namespace {

/// Stores the value after `arg`'s "--flag=" in `out`, read whole; a value
/// that is not entirely a number exits 2 before any trial runs.
template <typename T>
void read_number(const char* argv0, std::string_view arg, T& out) {
  try {
    out = parse_number<T>(arg.substr(arg.find('=') + 1), arg);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s: %s\n",
                 std::filesystem::path(argv0).filename().c_str(),
                 error.what());
    std::exit(2);
  }
}

}  // namespace

BenchOptions BenchOptions::parse(int argc, char** argv,
                                 const std::string& description) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s\n\n", description.c_str());
      std::printf(
          "options:\n"
          "  --runs=N     repetitions per data point (default 300)\n"
          "  --quick      use 30 runs (smoke test)\n"
          "  --csv        CSV output\n"
          "  --seed=S     master seed (default 1)\n"
          "  --threads=T  trial-runner threads (default: hardware "
          "concurrency)\n"
          "  --quiet      no stderr progress meter\n"
          "  --json=PATH  result artifact path (default "
          "BENCH_<target>.json)\n"
          "  --obs=LEVEL  observability level off|counters|full "
          "(default counters)\n");
      std::exit(0);
    } else if (arg == "--quick") {
      options.runs = 30;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg.rfind("--runs=", 0) == 0) {
      read_number(argv[0], arg, options.runs);
      if (options.runs == 0) {
        std::fprintf(stderr, "--runs must be positive\n");
        std::exit(2);
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      read_number(argv[0], arg, options.seed);
    } else if (arg.rfind("--threads=", 0) == 0) {
      read_number(argv[0], arg, options.threads);
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json = std::string(arg.substr(7));
      if (options.json.empty()) {
        std::fprintf(stderr, "--json needs a path\n");
        std::exit(2);
      }
    } else if (arg.rfind("--obs=", 0) == 0) {
      try {
        options.obs_level = obs::parse_level(arg.substr(6));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  runtime::global_runner().configure(options.threads, !options.quiet);
  // Graceful SIGINT/SIGTERM: the first signal trips the shutdown latch, the
  // trial runner folds the trials already finished, and BenchSession flushes
  // a partial artifact marked "truncated": true.  A second signal force-
  // exits (see runtime/cancel.cpp).
  runtime::install_shutdown_handlers();
  runtime::global_runner().set_cancel_token(
      runtime::CancelToken::linked_to_shutdown());
  obs::set_level(options.obs_level);
  // Fresh counts for this harness run: registrations from other benches in
  // the same process (gtest-style multi-runs) must not leak into the
  // artifact's metrics section.
  obs::MetricsRegistry::instance().reset();
  obs::reset_sweep_phase_seconds();
  return options;
}

}  // namespace pet::bench

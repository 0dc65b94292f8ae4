// benchdiff — tolerance-aware comparator for BENCH_<target>.json artifacts.
//
// Compares a candidate artifact against a checked-in golden: `target` and
// every row must agree (numeric cells within --rtol/--atol, other cells
// byte-for-byte); `threads` and `wall_seconds` are ignored because rows are
// thread-invariant under the determinism contract while wall time is
// machine noise.
//
// Exit status: 0 artifacts agree, 1 they differ, 2 usage/IO/parse error.
//
// Usage:
//   benchdiff GOLDEN.json CANDIDATE.json [--rtol=F] [--atol=F] [--quiet]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common/parse_number.hpp"
#include "verify/benchjson.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: %s GOLDEN.json CANDIDATE.json [--rtol=F] [--atol=F] "
               "[--quiet]\n",
               argv0);
  std::exit(code);
}

bool take_value(const std::string& arg, const char* flag, std::string& out) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  pet::verify::BenchDiffOptions options;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      if (arg == "--help" || arg == "-h") {
        usage(argv[0], 0);
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (take_value(arg, "--rtol", value)) {
        options.rtol = pet::parse_number<double>(value, arg);
      } else if (take_value(arg, "--atol", value)) {
        options.atol = pet::parse_number<double>(value, arg);
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "benchdiff: unknown argument '%s'\n",
                     arg.c_str());
        usage(argv[0], 2);
      } else {
        paths.push_back(arg);
      }
    }
    if (paths.size() != 2) usage(argv[0], 2);
    // "inf" and "nan" parse as numbers but bound nothing.
    if (!(options.rtol >= 0.0 && std::isfinite(options.rtol)) ||
        !(options.atol >= 0.0 && std::isfinite(options.atol))) {
      std::fprintf(stderr,
                   "benchdiff: tolerances must be finite and non-negative\n");
      return 2;
    }

    const auto golden = pet::verify::load_bench_json(paths[0]);
    const auto candidate = pet::verify::load_bench_json(paths[1]);
    const auto diff = pet::verify::diff_bench(golden, candidate, options);
    if (diff.ok()) {
      if (!quiet) {
        std::printf("benchdiff: %s == %s (%zu rows, rtol %.3g, atol %.3g)\n",
                    paths[0].c_str(), paths[1].c_str(), golden.rows.size(),
                    options.rtol, options.atol);
      }
      return 0;
    }
    for (const auto& mismatch : diff.mismatches) {
      std::fprintf(stderr, "benchdiff: %s\n", mismatch.c_str());
    }
    std::fprintf(stderr, "benchdiff: %zu mismatch(es) between %s and %s\n",
                 diff.mismatches.size(), paths[0].c_str(), paths[1].c_str());
    return 1;
  } catch (const std::exception& err) {
    // A tolerance that is not entirely a number, or an artifact that does
    // not load.
    std::fprintf(stderr, "benchdiff: %s\n", err.what());
    return 2;
  }
}

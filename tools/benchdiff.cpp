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

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

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

/// A tolerance is one finite number and nothing else: "5%" is not 5.
bool parse_tolerance(const std::string& text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out);
}

int malformed(const std::string& arg) {
  std::fprintf(stderr, "benchdiff: '%s' is not a number\n", arg.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  pet::verify::BenchDiffOptions options;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (take_value(arg, "--rtol", value)) {
      if (!parse_tolerance(value, options.rtol)) return malformed(arg);
    } else if (take_value(arg, "--atol", value)) {
      if (!parse_tolerance(value, options.atol)) return malformed(arg);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "benchdiff: unknown argument '%s'\n", arg.c_str());
      usage(argv[0], 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) usage(argv[0], 2);
  if (options.rtol < 0.0 || options.atol < 0.0) {
    std::fprintf(stderr, "benchdiff: tolerances must be non-negative\n");
    return 2;
  }

  try {
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
    std::fprintf(stderr, "benchdiff: %s\n", err.what());
    return 2;
  }
}

// petverify — run the statistical conformance harness.
//
// Checks every statistical promise the library makes (theory identities,
// goodness-of-fit of all channel back ends against the exact depth law,
// estimator CI calibration) at fixed seeds and exits non-zero if any check
// fails.  docs/testing.md documents the methodology.
//
// Usage:
//   petverify [--quick] [--seed=N] [--threads=N] [--quiet] [--alpha=F]
//             [--filter=SUBSTR] [--inject-phi-bias=F] [--list]
//
// --inject-phi-bias arms the test-only estimator mutation hook
// (core::testing::set_phi_bias_for_tests); the mutation smoke test uses it
// to prove the calibration checks detect a real bias.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/parse_number.hpp"
#include "core/theory.hpp"
#include "runtime/trial_runner.hpp"
#include "verify/conformance.hpp"

namespace {

struct Args {
  pet::verify::ConformanceOptions options;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  bool quiet = false;
  bool list = false;
  double phi_bias = 1.0;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s [--quick] [--seed=N] [--threads=N] [--quiet] [--alpha=F]\n"
      "          [--filter=SUBSTR] [--inject-phi-bias=F] [--list]\n",
      argv0);
  std::exit(code);
}

bool take_value(const std::string& arg, const char* flag, std::string& out) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--quick") {
      args.options.quick = true;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--list") {
      args.list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (take_value(arg, "--seed", value)) {
      args.options.seed = pet::parse_number<std::uint64_t>(value, arg);
    } else if (take_value(arg, "--threads", value)) {
      args.threads = pet::parse_number<unsigned>(value, arg);
    } else if (take_value(arg, "--alpha", value)) {
      args.options.family_alpha = pet::parse_number<double>(value, arg);
    } else if (take_value(arg, "--filter", value)) {
      args.options.filter = value;
    } else if (take_value(arg, "--inject-phi-bias", value)) {
      args.phi_bias = pet::parse_number<double>(value, arg);
    } else {
      std::fprintf(stderr, "petverify: unknown argument '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  if (args.options.family_alpha <= 0.0 || args.options.family_alpha >= 1.0) {
    std::fprintf(stderr, "petverify: --alpha must be in (0, 1)\n");
    std::exit(2);
  }
  if (args.phi_bias <= 0.0) {
    std::fprintf(stderr, "petverify: --inject-phi-bias must be positive\n");
    std::exit(2);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::invalid_argument& err) {
    // A flag value that is not entirely a number.
    std::fprintf(stderr, "petverify: %s\n", err.what());
    return 2;
  }

  if (args.list) {
    for (const auto& name : pet::verify::conformance_check_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  try {
    pet::core::testing::ScopedPhiBias bias(args.phi_bias);
    if (args.phi_bias != 1.0 && !args.quiet) {
      std::printf("petverify: MUTATION ARMED, phi bias %.4f — the harness "
                  "is expected to fail\n",
                  args.phi_bias);
    }

    pet::runtime::TrialRunner runner(args.threads, false);
    const auto report = pet::verify::run_conformance(args.options, runner);

    for (const auto& check : report.checks) {
      if (args.quiet && check.passed) continue;
      std::printf("[%s] %-28s %s\n", check.passed ? "PASS" : "FAIL",
                  check.name.c_str(), check.detail.c_str());
    }
    std::printf("petverify: %zu/%zu checks passed (seed %llu, %s, %u "
                "threads)\n",
                report.checks.size() - report.failures(),
                report.checks.size(),
                static_cast<unsigned long long>(args.options.seed),
                args.options.quick ? "quick" : "full", runner.thread_count());
    if (report.checks.empty()) {
      std::fprintf(stderr, "petverify: filter '%s' matched no checks\n",
                   args.options.filter.c_str());
      return 2;
    }
    return report.all_passed() ? 0 : 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "petverify: fatal: %s\n", err.what());
    return 2;
  }
}

#include "verify/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/radix.hpp"
#include "common/simd.hpp"
#include "core/constants.hpp"
#include "core/theory.hpp"
#include "rng/hash_family.hpp"
#include "rng/prng.hpp"
#include "tags/population.hpp"
#include "verify/calibration.hpp"
#include "verify/depth_sampling.hpp"
#include "verify/gof.hpp"

namespace pet::verify {

namespace {

/// Number of individual GoF hypothesis tests in the registry (6 clean
/// backends + 4 fault scenarios + 2 gen2 impairment scenarios, chi-square
/// and KS each).  The Bonferroni adjustment uses this fixed count so
/// thresholds do not depend on the --filter selection.
constexpr std::size_t kGofTestCount = 24;

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

struct Context {
  const ConformanceOptions& options;
  runtime::TrialRunner& runner;
  double gof_alpha = 0.0;  ///< Bonferroni-adjusted per-test level

  [[nodiscard]] std::uint64_t check_seed(std::uint64_t salt) const {
    return rng::derive_seed(options.seed, 0xc04f0000ULL + salt);
  }
  [[nodiscard]] std::uint64_t scaled(std::uint64_t full,
                                     std::uint64_t quick) const {
    return options.quick ? quick : full;
  }
};

// ---------------------------------------------------------------- theory --

/// Closed-form identities of core/theory, checked without any sampling.
CheckResult check_theory(const Context&) {
  CheckResult result;
  result.name = "theory/self-consistency";
  std::string errors;

  const struct { std::uint64_t n; unsigned height; } cases[] = {
      {1, 8}, {100, 16}, {20000, 32}};
  for (const auto& c : cases) {
    const core::DepthDistribution dist(c.n, c.height);
    double total = 0.0;
    double mean = 0.0;
    for (unsigned k = 0; k <= c.height; ++k) {
      const double p = dist.pmf(k);
      total += p;
      mean += k * p;
      const double lower = k == 0 ? 0.0 : dist.cdf(k - 1);
      if (std::fabs(dist.cdf(k) - lower - p) > 1e-9) {
        errors += fmt(" pmf/cdf mismatch at n=%llu k=%u;",
                      static_cast<unsigned long long>(c.n), k);
        break;
      }
    }
    if (std::fabs(total - 1.0) > 1e-9) {
      errors += fmt(" pmf sums to %.12f at n=%llu;", total,
                    static_cast<unsigned long long>(c.n));
    }
    if (std::fabs(mean - dist.mean()) > 1e-9) {
      errors += fmt(" mean() %.9f != sum k*pmf %.9f at n=%llu;", dist.mean(),
                    mean, static_cast<unsigned long long>(c.n));
    }
    // Independent recomputation of the survival law, Eq. (5):
    //   P(d >= k) = 1 - (1 - 2^-k)^n  ==>  cdf(k-1) = (1 - 2^-k)^n.
    for (unsigned k = 1; k <= c.height; ++k) {
      const double survival =
          std::pow(1.0 - std::exp2(-static_cast<double>(k)),
                   static_cast<double>(c.n));
      if (std::fabs(dist.cdf(k - 1) - survival) > 1e-9) {
        errors += fmt(" Eq.5 survival mismatch at n=%llu k=%u;",
                      static_cast<unsigned long long>(c.n), k);
        break;
      }
    }
  }

  // The estimator read-out must invert the asymptotic mean-depth law.
  const double n_back =
      core::estimate_from_mean_depth(std::log2(core::kPhi * 1234.0));
  if (std::fabs(n_back - 1234.0) > 1e-6) {
    errors += fmt(" estimate_from_mean_depth inversion gives %.6f;", n_back);
  }
  // Asymptotic mean depth tracks the exact mean (small periodic wobble).
  const core::DepthDistribution big(20000, 32);
  const double drift = std::fabs(core::asymptotic_mean_depth(20000.0) -
                                 big.mean());
  if (drift > 0.05) {
    errors += fmt(" asymptotic mean depth off by %.4f;", drift);
  }
  // Eq. (6) (paper's approximation) agrees with the exact H - E(d).
  const double eq6 = core::expected_gray_height_eq6(20000, 32);
  const double eq6_drift = std::fabs(eq6 - (32.0 - big.mean()));
  if (eq6_drift > 0.02) {
    errors += fmt(" Eq.6 vs exact gray height off by %.4f;", eq6_drift);
  }

  result.passed = errors.empty();
  result.detail = errors.empty()
                      ? fmt("identities hold; asymptotic drift %.4f, "
                            "Eq.6 drift %.4f", drift, eq6_drift)
                      : errors;
  return result;
}

// ----------------------------------------------------------------- build --

/// Deterministic byte-identity of channel construction: the SIMD batch
/// hash + radix sort must reproduce the scalar batch + radix sort and the
/// element-wise uniform_code oracle exactly.  Not a hypothesis test (no
/// sampling distribution), so it stays outside the kGofTestCount
/// Bonferroni family.
CheckResult check_build_identity(const Context& ctx) {
  CheckResult result;
  result.name = "build/simd-identity";
  std::string errors;

  const SimdTier restore = simd_tier();
  const std::uint64_t n = ctx.scaled(200000, 30000);
  const auto population =
      tags::TagPopulation::generate(n, ctx.check_seed(40));
  const std::uint64_t seed = ctx.check_seed(41);

  for (const unsigned height : {13u, 32u, 64u}) {
    // Element-wise oracle, sorted by the standard library.
    std::vector<std::uint64_t> oracle;
    oracle.reserve(n);
    for (const TagId id : population.ids()) {
      oracle.push_back(
          rng::uniform_code(rng::HashKind::kMix64, seed, id, height).value());
    }
    std::sort(oracle.begin(), oracle.end());

    set_simd(false);
    std::vector<std::uint64_t> scalar_codes;
    rng::uniform_code_batch(rng::HashKind::kMix64, seed, population.ids(),
                            height, scalar_codes);
    std::vector<std::uint64_t> scratch;
    radix_sort_u64(scalar_codes, scratch, height);

    set_simd(true);
    std::vector<std::uint64_t> simd_codes;
    rng::uniform_code_batch(rng::HashKind::kMix64, seed, population.ids(),
                            height, simd_codes);
    radix_sort_u64(simd_codes, scratch, height);

    if (scalar_codes != oracle) {
      errors += fmt(" scalar batch diverges from oracle at H=%u;", height);
    }
    if (simd_codes != oracle) {
      errors += fmt(" simd batch diverges from oracle at H=%u (tier %s);",
                    height, to_string(simd_tier()).data());
    }
  }
  set_simd(restore);

  result.passed = errors.empty();
  result.detail =
      errors.empty()
          ? fmt("sorted codes byte-identical (oracle/scalar/%s) at n=%llu, "
                "H in {13,32,64}",
                to_string(simd_tier()).data(),
                static_cast<unsigned long long>(n))
          : errors;
  return result;
}

// ------------------------------------------------------------------- GoF --

/// Shared body of every GoF check: sample depths under `spec`, test against
/// the exact oracle, and demand match (clean) or mismatch (fault-injected).
CheckResult gof_check(const Context& ctx, std::string name,
                      DepthSampleSpec spec, bool expect_match) {
  CheckResult result;
  result.name = std::move(name);
  const auto counts = collect_depths(spec, ctx.runner);
  const core::DepthDistribution theory(spec.n, spec.tree_height);
  const auto chi = chi_square_depth_gof(counts, theory, ctx.gof_alpha);
  const auto ks = ks_depth_gof(counts, theory, ctx.gof_alpha);

  result.passed = expect_match ? (!chi.reject() && !ks.reject())
                               : (chi.reject() && ks.reject());
  result.detail = fmt(
      "N=%llu chi2=%.2f (crit %.2f, dof %u, %s) ks=%.4f (crit %.4f, %s); "
      "expected %s",
      static_cast<unsigned long long>(chi.samples), chi.statistic,
      chi.threshold, chi.dof, chi.reject() ? "reject" : "accept",
      ks.statistic, ks.threshold, ks.reject() ? "reject" : "accept",
      expect_match ? "match" : "mismatch");
  return result;
}

DepthSampleSpec clean_spec(const Context& ctx, DepthBackend backend,
                           std::uint64_t salt) {
  DepthSampleSpec spec;
  spec.backend = backend;
  spec.seed = ctx.check_seed(salt);
  switch (backend) {
    case DepthBackend::kSampled:
      spec.n = 10000;
      spec.tree_height = 32;
      spec.trials = ctx.scaled(200, 50);
      spec.rounds_per_trial = 50;
      break;
    case DepthBackend::kExactRehash:
      spec.n = 2048;
      spec.tree_height = 32;
      spec.trials = ctx.scaled(100, 25);
      spec.rounds_per_trial = 40;
      break;
    case DepthBackend::kExactPreloaded:
    case DepthBackend::kSortedPreloaded:
    case DepthBackend::kGen2Preloaded:
      // Preloaded codes are shared across rounds: independent samples need
      // fresh manufacturing seeds, hence one round per trial.
      spec.n = 1024;
      spec.tree_height = 32;
      spec.trials = ctx.scaled(3000, 800);
      spec.rounds_per_trial = 1;
      break;
    case DepthBackend::kDeviceRehash:
    case DepthBackend::kDevicePreloaded:
      spec.n = 64;
      spec.tree_height = 16;
      spec.trials = ctx.scaled(400, 100);
      spec.rounds_per_trial = 20;
      break;
  }
  return spec;
}

/// Fault scenarios run the full simulator at a small population so the
/// injected impairments dominate the law, not the tails.
DepthSampleSpec fault_spec(const Context& ctx, std::uint64_t salt) {
  DepthSampleSpec spec;
  spec.backend = DepthBackend::kDeviceRehash;
  spec.n = 64;
  spec.tree_height = 16;
  spec.trials = ctx.scaled(200, 60);
  spec.rounds_per_trial = 20;
  spec.seed = ctx.check_seed(salt);
  return spec;
}

// ----------------------------------------------------------- calibration --

struct Band {
  const char* metric;
  double value;
  double lo;
  double hi;
};

CheckResult band_check(std::string name, const CalibrationResult& cal,
                       std::initializer_list<Band> bands) {
  CheckResult result;
  result.name = std::move(name);
  result.passed = true;
  result.detail = fmt("trials=%llu",
                      static_cast<unsigned long long>(cal.trials));
  for (const Band& band : bands) {
    const bool ok = band.value >= band.lo && band.value <= band.hi;
    if (!ok) result.passed = false;
    result.detail += fmt(" %s=%.4f%s[%.3f,%.3f]", band.metric, band.value,
                         ok ? " in " : " OUT ", band.lo, band.hi);
  }
  return result;
}

CalibrationSpec calibration_spec(const Context& ctx, std::uint64_t salt,
                                 std::uint64_t n) {
  CalibrationSpec spec;
  spec.n = n;
  spec.trials = ctx.scaled(400, 150);
  spec.rounds = 64;
  spec.seed = ctx.check_seed(salt);
  return spec;
}

// ---------------------------------------------------------------- registry --

struct Check {
  std::string name;
  std::function<CheckResult()> run;
};

std::vector<Check> build_registry(const Context& ctx) {
  std::vector<Check> checks;
  auto add = [&](std::string name, std::function<CheckResult()> run) {
    checks.push_back({std::move(name), std::move(run)});
  };

  add("theory/self-consistency", [&ctx] { return check_theory(ctx); });
  add("build/simd-identity",
      [&ctx] { return check_build_identity(ctx); });

  // Clean GoF: the estimating-tree law must hold on every backend.
  const std::pair<const char*, DepthBackend> clean[] = {
      {"gof/sampled-clean", DepthBackend::kSampled},
      {"gof/exact-rehash-clean", DepthBackend::kExactRehash},
      {"gof/exact-preloaded-clean", DepthBackend::kExactPreloaded},
      {"gof/sorted-preloaded-clean", DepthBackend::kSortedPreloaded},
      {"gof/device-rehash-clean", DepthBackend::kDeviceRehash},
      {"gof/gen2-clean", DepthBackend::kGen2Preloaded},
  };
  std::uint64_t salt = 1;
  for (const auto& [name, backend] : clean) {
    const std::uint64_t s = salt++;
    add(name, [&ctx, name = std::string(name), backend, s] {
      return gof_check(ctx, name, clean_spec(ctx, backend, s), true);
    });
  }

  // Fault-injected GoF: theory predicts the clean law must break.
  add("gof/device-loss-breaks", [&ctx] {
    auto spec = fault_spec(ctx, 10);
    spec.impairments.reply_loss_prob = 0.3;  // frontier replies vanish
    return gof_check(ctx, "gof/device-loss-breaks", spec, false);
  });
  add("gof/device-burst-breaks", [&ctx] {
    auto spec = fault_spec(ctx, 11);
    spec.impairments.burst.p_good_to_bad = 0.1;
    spec.impairments.burst.p_bad_to_good = 0.2;  // ~1/3 of slots in bursts
    spec.impairments.burst.loss_bad = 1.0;
    return gof_check(ctx, "gof/device-burst-breaks", spec, false);
  });
  add("gof/device-noise-breaks", [&ctx] {
    auto spec = fault_spec(ctx, 12);
    spec.impairments.noise_transient.p_start = 0.15;
    spec.impairments.noise_transient.p_stop = 0.25;
    spec.impairments.noise_transient.noisy_false_busy_prob = 0.6;
    return gof_check(ctx, "gof/device-noise-breaks", spec, false);
  });
  add("gof/device-outage-breaks", [&ctx] {
    auto spec = fault_spec(ctx, 13);
    spec.rounds_per_trial = 16;
    // Reader dark for the first ~half of each trial's probe slots: those
    // rounds read idle paths and report impossibly shallow depths.
    spec.impairments.script.outages.push_back(sim::ReaderOutage{0, 40});
    return gof_check(ctx, "gof/device-outage-breaks", spec, false);
  });

  // Gen2 impairment GoF.  PET's probes only sense busy vs idle, and the
  // capture effect turns collisions into decodable singletons — busy
  // either way — so even certain capture must leave the depth law intact
  // (the positive control).  Imperfect idle detection flips the verdict
  // itself, so noise must break the law (the negative control).
  add("gof/gen2-capture-invariant", [&ctx] {
    auto spec = clean_spec(ctx, DepthBackend::kGen2Preloaded, 14);
    spec.impairments.capture.capture_prob = 1.0;
    spec.impairments.capture.extra_decay = 1.0;
    return gof_check(ctx, "gof/gen2-capture-invariant", spec, true);
  });
  add("gof/gen2-noise-breaks", [&ctx] {
    auto spec = clean_spec(ctx, DepthBackend::kGen2Preloaded, 15);
    spec.impairments.false_busy_prob = 0.25;
    return gof_check(ctx, "gof/gen2-noise-breaks", spec, false);
  });

  // Estimator calibration: the paper's interval/accuracy promises.
  add("calibration/pet", [&ctx] {
    const auto spec = calibration_spec(ctx, 20, 20000);
    const auto cal = calibrate_pet(spec, ctx.runner);
    return band_check("calibration/pet", cal,
                      {{"coverage", cal.coverage, 0.91, 0.995},
                       {"emp_coverage", cal.empirical_coverage, 0.90, 0.995},
                       {"accuracy", cal.accuracy, 0.97, 1.06},
                       {"var_ratio", cal.variance_ratio, 0.85, 1.15}});
  });
  add("calibration/pet-gen2", [&ctx] {
    const auto spec = calibration_spec(ctx, 26, 10000);
    const auto cal = calibrate_pet_gen2(spec, ctx.runner);
    return band_check("calibration/pet-gen2", cal,
                      {{"coverage", cal.coverage, 0.91, 0.995},
                       {"emp_coverage", cal.empirical_coverage, 0.90, 0.995},
                       {"accuracy", cal.accuracy, 0.97, 1.06},
                       {"var_ratio", cal.variance_ratio, 0.85, 1.15}});
  });
  add("calibration/robust-pet", [&ctx] {
    const auto spec = calibration_spec(ctx, 21, 20000);
    const auto cal = calibrate_robust_pet(spec, ctx.runner);
    return band_check("calibration/robust-pet", cal,
                      {{"coverage", cal.coverage, 0.91, 1.0},
                       {"accuracy", cal.accuracy, 0.97, 1.06},
                       {"healthy", cal.healthy_fraction, 0.95, 1.0}});
  });
  const std::pair<const char*,
                  CalibrationResult (*)(const CalibrationSpec&,
                                        runtime::TrialRunner&)>
      baselines[] = {
          {"calibration/fneb", &calibrate_fneb},
          {"calibration/lof", &calibrate_lof},
          {"calibration/upe", &calibrate_upe},
          {"calibration/ezb", &calibrate_ezb},
      };
  std::uint64_t cal_salt = 22;
  for (const auto& [name, fn] : baselines) {
    const std::uint64_t s = cal_salt++;
    add(name, [&ctx, name = std::string(name), fn, s] {
      const auto spec = calibration_spec(ctx, s, 10000);
      const auto cal = fn(spec, ctx.runner);
      return band_check(name, cal,
                        {{"accuracy", cal.accuracy, 0.90, 1.10},
                         {"within", cal.within_fraction, 0.85, 1.0}});
    });
  }

  return checks;
}

}  // namespace

std::vector<std::string> conformance_check_names() {
  ConformanceOptions options;
  runtime::TrialRunner runner(1);
  Context ctx{options, runner, 0.0};
  std::vector<std::string> names;
  for (const auto& check : build_registry(ctx)) names.push_back(check.name);
  return names;
}

ConformanceReport run_conformance(const ConformanceOptions& options,
                                  runtime::TrialRunner& runner) {
  Context ctx{options, runner,
              bonferroni_alpha(options.family_alpha, kGofTestCount)};
  ConformanceReport report;
  for (const auto& check : build_registry(ctx)) {
    if (!options.filter.empty() &&
        check.name.find(options.filter) == std::string::npos) {
      continue;
    }
    try {
      report.checks.push_back(check.run());
    } catch (const std::exception& err) {
      report.checks.push_back(
          {check.name, false, std::string("exception: ") + err.what()});
    }
  }
  return report;
}

}  // namespace pet::verify

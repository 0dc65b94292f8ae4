// Unit tests for the statistical conformance harness (src/verify): GoF
// primitives against known quantiles and against the oracle's own samples,
// the BENCH artifact parser/comparator (including a seeded mutation pass
// over every committed golden and fixture), fault-replay determinism across
// thread counts, and the test-only phi mutation hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ensure.hpp"

#include "core/constants.hpp"
#include "core/theory.hpp"
#include "obs/jsonlite.hpp"
#include "rng/prng.hpp"
#include "runtime/json.hpp"
#include "runtime/trial_runner.hpp"
#include "verify/benchjson.hpp"
#include "verify/calibration.hpp"
#include "verify/conformance.hpp"
#include "verify/depth_sampling.hpp"
#include "verify/gof.hpp"

namespace pet {
namespace {

using verify::DepthCounts;

// ------------------------------------------------------------- primitives

TEST(Gof, ChiSquareCriticalMatchesTables) {
  // Wilson-Hilferty is accurate to ~1% at these dofs; reference values
  // from standard chi-square tables.
  EXPECT_NEAR(verify::chi_square_critical(10, 0.05), 18.307, 0.2);
  EXPECT_NEAR(verify::chi_square_critical(5, 0.01), 15.086, 0.2);
  EXPECT_NEAR(verify::chi_square_critical(30, 0.05), 43.773, 0.4);
  // Monotone in dof and in 1 - alpha.
  EXPECT_LT(verify::chi_square_critical(5, 0.05),
            verify::chi_square_critical(6, 0.05));
  EXPECT_LT(verify::chi_square_critical(5, 0.05),
            verify::chi_square_critical(5, 0.01));
}

TEST(Gof, KsCriticalIsTheDkwBound) {
  const double expected = std::sqrt(std::log(2.0 / 0.05) / (2.0 * 1000.0));
  EXPECT_NEAR(verify::ks_one_sample_critical(1000, 0.05), expected, 1e-12);
  EXPECT_LT(verify::ks_one_sample_critical(4000, 0.05),
            verify::ks_one_sample_critical(1000, 0.05));
}

TEST(Gof, BonferroniDividesTheFamilyLevel) {
  EXPECT_DOUBLE_EQ(verify::bonferroni_alpha(0.05, 10), 0.005);
  EXPECT_DOUBLE_EQ(verify::bonferroni_alpha(0.01, 1), 0.01);
}

// The decisive property: samples drawn from the oracle itself must be
// accepted; samples from a different population size must be rejected.
DepthCounts sample_oracle(std::uint64_t n, unsigned height,
                          std::uint64_t draws, std::uint64_t seed) {
  const core::DepthDistribution dist(n, height);
  rng::Xoshiro256ss gen(seed);
  DepthCounts counts(height + 1, 0);
  for (std::uint64_t i = 0; i < draws; ++i) ++counts[dist.sample(gen)];
  return counts;
}

TEST(Gof, AcceptsOracleSamplesRejectsWrongPopulation) {
  const core::DepthDistribution theory(5000, 32);
  const auto own = sample_oracle(5000, 32, 4000, 7);
  EXPECT_FALSE(verify::chi_square_depth_gof(own, theory, 0.01).reject());
  EXPECT_FALSE(verify::ks_depth_gof(own, theory, 0.01).reject());

  // Double the population: the law shifts by one depth — gross.
  const auto wrong = sample_oracle(10000, 32, 4000, 7);
  EXPECT_TRUE(verify::chi_square_depth_gof(wrong, theory, 0.01).reject());
  EXPECT_TRUE(verify::ks_depth_gof(wrong, theory, 0.01).reject());
}

TEST(Gof, ChiSquareRejectsDegenerateHistograms) {
  const core::DepthDistribution theory(5000, 32);
  EXPECT_THROW((void)verify::chi_square_depth_gof(DepthCounts(33, 0), theory,
                                                  0.01),
               PreconditionError);
  // Histogram length must cover the full support [0, H].
  EXPECT_THROW((void)verify::chi_square_depth_gof(DepthCounts(4, 1), theory,
                                                  0.01),
               PreconditionError);
}

// --------------------------------------------------------- bench artifacts

TEST(BenchJson, RoundTripsReportWithEscapes) {
  runtime::BenchReport report("verify_test", 3);
  report.set_wall_seconds(1.25);
  report.add_row("Table \"X\"\nline2", {"col,a", "tab\tcol"},
                 {"1.5", "va\\lue"});
  const auto artifact = verify::parse_bench_json(report.to_json());
  EXPECT_EQ(artifact.target, "verify_test");
  EXPECT_EQ(artifact.threads, 3u);
  EXPECT_DOUBLE_EQ(artifact.wall_seconds, 1.25);
  ASSERT_EQ(artifact.rows.size(), 1u);
  const auto& row = artifact.rows[0];
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].first, "table");
  EXPECT_EQ(row[0].second, "Table \"X\"\nline2");
  EXPECT_EQ(row[1].first, "col,a");
  EXPECT_EQ(row[2].first, "tab\tcol");
  EXPECT_EQ(row[2].second, "va\\lue");
}

TEST(BenchJson, NonFiniteWallSecondsSerializesAsNullAndParses) {
  EXPECT_EQ(runtime::json_number(std::nan(""), 3), "null");
  EXPECT_EQ(runtime::json_number(HUGE_VAL, 3), "null");
  EXPECT_EQ(runtime::json_number(1.0 / 3.0, 3), "0.333");

  runtime::BenchReport report("nan_case", 1);
  report.set_wall_seconds(std::nan(""));
  const auto artifact = verify::parse_bench_json(report.to_json());
  EXPECT_TRUE(std::isnan(artifact.wall_seconds));
}

TEST(BenchJson, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)verify::parse_bench_json("{"), std::runtime_error);
  EXPECT_THROW((void)verify::parse_bench_json("{\"rows\": []}"),
               std::runtime_error);  // missing target
  EXPECT_THROW((void)verify::parse_bench_json(
                   "{\"target\": \"x\", \"rows\": []} trailing"),
               std::runtime_error);
  EXPECT_THROW((void)verify::parse_bench_json(
                   "{\"target\": \"x\", \"bogus\": 1, \"rows\": []}"),
               std::runtime_error);
}

verify::BenchArtifact tiny_artifact(const std::string& cell) {
  runtime::BenchReport report("t", 1);
  report.add_row("T", {"m", "value"}, {"64", cell});
  return verify::parse_bench_json(report.to_json());
}

TEST(BenchJson, DiffToleratesNumericDriftWithinBounds) {
  const auto golden = tiny_artifact("100.0");
  EXPECT_TRUE(verify::diff_bench(golden, tiny_artifact("104.9")).ok());
  EXPECT_FALSE(verify::diff_bench(golden, tiny_artifact("105.1")).ok());
  verify::BenchDiffOptions tight;
  tight.rtol = 0.0;
  tight.atol = 0.5;
  EXPECT_TRUE(verify::diff_bench(golden, tiny_artifact("100.4"), tight).ok());
  EXPECT_FALSE(verify::diff_bench(golden, tiny_artifact("100.6"), tight).ok());
}

TEST(BenchJson, DiffIsExactForNonNumericCells) {
  const auto golden = tiny_artifact("fast");
  EXPECT_TRUE(verify::diff_bench(golden, tiny_artifact("fast")).ok());
  EXPECT_FALSE(verify::diff_bench(golden, tiny_artifact("slow")).ok());
}

TEST(BenchJson, DiffCatchesStructuralDrift) {
  const auto golden = tiny_artifact("1");
  auto extra_rows = golden;
  extra_rows.rows.push_back(golden.rows[0]);
  EXPECT_FALSE(verify::diff_bench(golden, extra_rows).ok());

  auto renamed = golden;
  renamed.rows[0][1].first = "renamed";
  EXPECT_FALSE(verify::diff_bench(golden, renamed).ok());

  auto other_target = golden;
  other_target.target = "other";
  EXPECT_FALSE(verify::diff_bench(golden, other_target).ok());

  // threads / wall_seconds are run metadata, never compared.
  auto retimed = golden;
  retimed.threads = 99;
  retimed.wall_seconds = 1e9;
  EXPECT_TRUE(verify::diff_bench(golden, retimed).ok());
}

TEST(BenchJson, TruncatedArtifactRoundTripsAndNeverAgrees) {
  runtime::BenchReport report("t", 1);
  report.add_row("T", {"m"}, {"64"});
  const auto whole = verify::parse_bench_json(report.to_json());
  EXPECT_FALSE(whole.truncated);
  report.set_truncated(true);
  const auto partial = verify::parse_bench_json(report.to_json());
  EXPECT_TRUE(partial.truncated);

  // Same rows, but a drained sweep is not a result to gate on, whichever
  // side it is on.
  const auto diff = verify::diff_bench(whole, partial);
  ASSERT_EQ(diff.mismatches.size(), 1u);
  EXPECT_EQ(diff.mismatches[0], "candidate is truncated (a partial sweep)");
  const auto reverse = verify::diff_bench(partial, whole);
  ASSERT_EQ(reverse.mismatches.size(), 1u);
  EXPECT_EQ(reverse.mismatches[0], "golden is truncated (a partial sweep)");
}

TEST(BenchJson, SchemaRejectsWrongShapes) {
  const auto reject = [](const std::string& members) {
    EXPECT_THROW((void)verify::parse_bench_json(
                     "{\"target\": \"x\", " + members + "}"),
                 std::runtime_error)
        << members;
  };
  // threads is a whole number in [0, 2^32); casting anything else to an
  // integer would be undefined behaviour.
  reject("\"threads\": -1, \"rows\": []");
  reject("\"threads\": 1.5, \"rows\": []");
  reject("\"threads\": 1e30, \"rows\": []");
  reject("\"threads\": 4294967296, \"rows\": []");
  reject("\"threads\": \"4\", \"rows\": []");
  reject("\"wall_seconds\": \"1.5\", \"rows\": []");
  reject("\"truncated\": 1, \"rows\": []");
  reject("\"rows\": {}");
  reject("\"rows\": [[]]");
  reject("\"rows\": [{\"m\": 64}]");
  EXPECT_THROW((void)verify::parse_bench_json("[]"), std::runtime_error);
  EXPECT_THROW((void)verify::parse_bench_json("{\"target\": 1, \"rows\": []}"),
               std::runtime_error);

  const auto artifact = verify::parse_bench_json(
      "{\"target\": \"x\", \"threads\": 4294967295, \"wall_seconds\": 2,"
      " \"profile\": [1, {\"a\": null}], \"rows\": []}");
  EXPECT_EQ(artifact.threads, 4294967295u);
  EXPECT_EQ(artifact.metrics.kind, obs::JsonValue::Kind::kNull);
}

TEST(BenchJson, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  for (const std::string& text : {std::string(100000, '['), objects}) {
    EXPECT_THROW((void)verify::parse_bench_json(text), std::runtime_error);
    EXPECT_THROW((void)verify::parse_bench_json(
                     "{\"target\": \"x\", \"rows\": [], \"metrics\": " +
                     text),
                 std::runtime_error);
  }
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The committed JSON documents: every BENCH golden and every obscheck
/// fixture, in a fixed order.
std::vector<std::filesystem::path> committed_json(const char* dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(PET_SOURCE_DIR) / dir)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(BenchJson, EveryGoldenParsesCellForCellAndSelfDiffsClean) {
  const auto goldens = committed_json("bench/golden");
  ASSERT_FALSE(goldens.empty());
  for (const auto& path : goldens) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = read_text(path);
    const auto golden = verify::parse_bench_json(text);
    EXPECT_FALSE(golden.rows.empty());
    EXPECT_TRUE(verify::diff_bench(golden, golden).ok());

    // Re-emit the rows through the writer that produced the golden: a
    // reader that drops, reorders or alters a cell no longer reproduces
    // the committed "rows" text.
    runtime::BenchReport report(golden.target, 1);
    for (const verify::BenchRow& row : golden.rows) {
      ASSERT_FALSE(row.empty());
      ASSERT_EQ(row[0].first, "table");
      std::vector<std::string> columns;
      std::vector<std::string> cells;
      for (std::size_t c = 1; c < row.size(); ++c) {
        columns.push_back(row[c].first);
        cells.push_back(row[c].second);
      }
      report.add_row(row[0].second, columns, cells);
    }
    EXPECT_NE(text.find("\"rows\": " + report.rows_json() + "\n}"),
              std::string::npos);
  }
}

// Seeded mutational fuzzing of the one JSON reader over the committed
// documents: bit flips, byte inserts and deletes, truncations and splices
// between documents.  Every mutant must either parse or throw
// std::runtime_error; run under ASan/UBSan this also proves it never reads
// out of bounds, overflows the stack or casts out of range.
TEST(BenchJson, MutantsOfCommittedDocumentsParseOrThrow) {
  std::vector<std::string> corpus;
  for (const char* dir : {"bench/golden", "tools/fixtures"}) {
    for (const auto& path : committed_json(dir)) {
      corpus.push_back(read_text(path));
    }
  }
  ASSERT_GE(corpus.size(), 11u);

  // Bytes the tokenizer branches on, so inserts reach its error paths
  // more often than uniformly random bytes would.
  const std::string structural = "[]{}\",:\\u0123456789eE+-.tfn \n";
  rng::Xoshiro256ss gen(0x6a50f022);
  const auto below = [&gen](std::size_t bound) -> std::size_t {
    return bound == 0 ? 0 : static_cast<std::size_t>(gen() % bound);
  };
  constexpr int kMutantsPerDocument = 2000;
  std::size_t parsed = 0;
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    for (int m = 0; m < kMutantsPerDocument; ++m) {
      std::string text = corpus[d];
      for (std::size_t edits = 1 + below(3); edits > 0; --edits) {
        switch (below(5)) {
          case 0:  // bit flip
            if (!text.empty()) {
              text[below(text.size())] ^= static_cast<char>(1u << below(8));
            }
            break;
          case 1:  // byte insert
            text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                           below(text.size() + 1)),
                        below(2) == 0 ? structural[below(structural.size())]
                                      : static_cast<char>(gen()));
            break;
          case 2:  // byte delete
            if (!text.empty()) text.erase(below(text.size()), 1);
            break;
          case 3:  // truncation
            text.resize(below(text.size() + 1));
            break;
          default: {  // splice a slice of another document in
            const std::string& donor = corpus[below(corpus.size())];
            const std::size_t from = below(donor.size());
            const std::size_t length = below(std::min<std::size_t>(
                64, donor.size() - from + 1));
            text.replace(below(text.size() + 1), below(16),
                         donor.substr(from, length));
          }
        }
      }
      try {
        (void)obs::parse_json(text);
      } catch (const std::runtime_error&) {
        continue;  // parse_bench_json would fail in the same tokenizer
      }
      ++parsed;
      try {
        (void)verify::parse_bench_json(text);
      } catch (const std::runtime_error&) {
      }
    }
  }
  // Some mutants (a flipped digit, a spliced-in cell) stay valid JSON.
  EXPECT_GT(parsed, 0u);
}

// ------------------------------------------------- determinism / sampling

TEST(DepthSampling, HistogramIsThreadCountInvariant) {
  verify::DepthSampleSpec spec;
  spec.backend = verify::DepthBackend::kDeviceRehash;
  spec.n = 64;
  spec.tree_height = 16;
  spec.trials = 24;
  spec.rounds_per_trial = 4;
  spec.seed = 11;
  // Arm every fault source: replay must still be trial-indexed.
  spec.impairments.reply_loss_prob = 0.2;
  spec.impairments.burst.p_good_to_bad = 0.1;
  spec.impairments.burst.p_bad_to_good = 0.3;
  spec.impairments.noise_transient.p_start = 0.1;
  spec.impairments.noise_transient.p_stop = 0.3;
  spec.impairments.noise_transient.noisy_false_busy_prob = 0.4;
  spec.impairments.script.outages.push_back(sim::ReaderOutage{5, 10});

  DepthCounts reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    runtime::TrialRunner runner(threads, false);
    const auto counts = verify::collect_depths(spec, runner);
    if (reference.empty()) {
      reference = counts;
    } else {
      EXPECT_EQ(counts, reference) << "threads=" << threads;
    }
  }
  std::uint64_t total = 0;
  for (const auto c : reference) total += c;
  EXPECT_EQ(total, spec.trials * spec.rounds_per_trial);
}

TEST(DepthSampling, PreloadedBackendsRequireOneRoundPerTrial) {
  verify::DepthSampleSpec spec;
  spec.backend = verify::DepthBackend::kSortedPreloaded;
  spec.n = 16;
  spec.trials = 2;
  spec.rounds_per_trial = 4;
  runtime::TrialRunner runner(1, false);
  EXPECT_THROW((void)verify::collect_depths(spec, runner), PreconditionError);
}

TEST(Calibration, ResultsAreThreadCountInvariant) {
  verify::CalibrationSpec spec;
  spec.n = 2000;
  spec.trials = 24;
  spec.rounds = 16;
  spec.seed = 5;
  runtime::TrialRunner serial(1, false);
  runtime::TrialRunner parallel(4, false);
  const auto a = verify::calibrate_pet(spec, serial);
  const auto b = verify::calibrate_pet(spec, parallel);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.variance_ratio, b.variance_ratio);
}

// ------------------------------------------------------------ mutation hook

TEST(PhiBias, ScopedBiasScalesEstimatesAndRestores) {
  const double clean = core::estimate_from_mean_depth(10.0);
  EXPECT_NEAR(clean, std::exp2(10.0) / core::kPhi, 1e-9);
  {
    core::testing::ScopedPhiBias bias(2.0);
    EXPECT_NEAR(core::estimate_from_mean_depth(10.0), clean / 2.0, 1e-9);
  }
  EXPECT_NEAR(core::estimate_from_mean_depth(10.0), clean, 1e-9);
}

// ------------------------------------------------------------- registry

TEST(Conformance, RegistryNamesAreStable) {
  const auto names = verify::conformance_check_names();
  EXPECT_GE(names.size(), 16u);
  const std::vector<std::string> expected = {
      "theory/self-consistency", "gof/sampled-clean",
      "gof/device-outage-breaks", "calibration/pet", "calibration/ezb"};
  for (const auto& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(Conformance, FilterSelectsSubsetAndTheoryPasses) {
  verify::ConformanceOptions options;
  options.quick = true;
  options.filter = "theory/";
  runtime::TrialRunner runner(1, false);
  const auto report = verify::run_conformance(options, runner);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.checks[0].passed) << report.checks[0].detail;
  EXPECT_TRUE(report.all_passed());
  EXPECT_EQ(report.failures(), 0u);
}

}  // namespace
}  // namespace pet

// Schema reader + tolerance-aware comparator for BENCH_<target>.json
// artifacts (the schema BenchReport::to_json emits, documented in
// docs/runtime.md).  parse_bench_json tokenizes with obs::parse_json and
// checks the artifact's shape on the JsonValue it returns.
//
// diff_bench compares a candidate artifact against a golden one:
//   * `target` and row count must match exactly;
//   * an artifact marked `truncated` (a drained, partial sweep) never
//     agrees with anything: the mark itself is reported as a mismatch;
//   * `threads` and `wall_seconds` are ignored — the determinism contract
//     makes rows thread-invariant but wall time is machine noise;
//   * rows are matched by index; cells by key.  Cells that parse as
//     numbers on both sides compare within atol + rtol * |golden|;
//     anything else must match byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/jsonlite.hpp"

namespace pet::verify {

/// One BENCH row: ordered (key, value) cells, all values as strings
/// (BenchReport serialises every cell as a JSON string).
using BenchRow = std::vector<std::pair<std::string, std::string>>;

struct BenchArtifact {
  std::string target;
  std::uint64_t threads = 0;  ///< a whole number below 2^32
  double wall_seconds = 0.0;  ///< NaN when serialised as null
  /// True when the sweep was drained early (BenchReport::set_truncated):
  /// the rows are a prefix of the grid, not a result to gate on.
  bool truncated = false;
  /// The optional "metrics" member (a pet.obs.v1 document), null when
  /// absent.  diff_bench never compares it: profile metrics are machine
  /// noise by design.  The optional "profile" member (per-phase wall
  /// breakdown) is accepted and dropped for the same reason.
  obs::JsonValue metrics;
  std::vector<BenchRow> rows;
};

/// Parse a BENCH artifact from JSON text.  Throws std::runtime_error: the
/// tokenizer's errors carry a byte offset, schema errors name the key or
/// the row.
[[nodiscard]] BenchArtifact parse_bench_json(const std::string& text);

/// Read and parse a BENCH artifact file.  Throws std::runtime_error.
[[nodiscard]] BenchArtifact load_bench_json(const std::string& path);

struct BenchDiffOptions {
  double rtol = 0.05;   ///< relative tolerance for numeric cells
  double atol = 1e-9;   ///< absolute tolerance for numeric cells
};

struct BenchDiff {
  /// Human-readable mismatch descriptions; empty means artifacts agree.
  std::vector<std::string> mismatches;
  [[nodiscard]] bool ok() const noexcept { return mismatches.empty(); }
};

[[nodiscard]] BenchDiff diff_bench(const BenchArtifact& golden,
                                   const BenchArtifact& candidate,
                                   const BenchDiffOptions& options = {});

}  // namespace pet::verify

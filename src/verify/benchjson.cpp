#include "verify/benchjson.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace pet::verify {

namespace {

using obs::JsonValue;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("bench json: " + what);
}

std::vector<BenchRow> read_rows(const JsonValue& rows) {
  if (!rows.is_array()) fail("'rows' is not an array");
  std::vector<BenchRow> out;
  out.reserve(rows.array.size());
  for (std::size_t r = 0; r < rows.array.size(); ++r) {
    const JsonValue& row = rows.array[r];
    const std::string where = "row " + std::to_string(r);
    if (!row.is_object()) fail(where + " is not an object");
    BenchRow& cells = out.emplace_back();
    for (const auto& [key, value] : row.object) {
      if (!value.is_string()) {
        fail(where + ": cell '" + key + "' is not a string");
      }
      cells.emplace_back(key, value.string);
    }
  }
  return out;
}

/// Cells are strings; the comparator treats a cell as numeric only when
/// the whole string parses as one finite double.
bool parse_cell_number(const std::string& cell, double& out) {
  if (cell.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(cell.c_str(), &end);
  if (errno != 0 || end != cell.c_str() + cell.size()) return false;
  if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

std::string row_label(const BenchArtifact& artifact, std::size_t index) {
  std::string label = "row " + std::to_string(index);
  for (const auto& [key, value] : artifact.rows[index]) {
    if (key == "table") return label + " (" + value + ")";
  }
  return label;
}

}  // namespace

BenchArtifact parse_bench_json(const std::string& text) {
  JsonValue document = obs::parse_json(text);
  if (!document.is_object()) fail("artifact is not an object");
  BenchArtifact artifact;
  bool saw_target = false;
  bool saw_rows = false;
  for (auto& [key, value] : document.object) {
    if (key == "target") {
      if (!value.is_string()) fail("'target' is not a string");
      artifact.target = value.string;
      saw_target = true;
    } else if (key == "threads") {
      // Range-check before the cast: a double outside uint64_t is UB.
      if (!value.is_number() || value.number < 0.0 ||
          value.number >= 4294967296.0 ||
          value.number != std::floor(value.number)) {
        fail("'threads' is not a whole number in [0, 2^32)");
      }
      artifact.threads = static_cast<std::uint64_t>(value.number);
    } else if (key == "wall_seconds") {
      if (value.kind == JsonValue::Kind::kNull) {
        artifact.wall_seconds = std::numeric_limits<double>::quiet_NaN();
      } else if (value.is_number()) {
        artifact.wall_seconds = value.number;
      } else {
        fail("'wall_seconds' is neither a number nor null");
      }
    } else if (key == "truncated") {
      if (value.kind != JsonValue::Kind::kBool) {
        fail("'truncated' is not a boolean");
      }
      artifact.truncated = value.boolean;
    } else if (key == "metrics") {
      artifact.metrics = std::move(value);
    } else if (key == "profile") {
      // Per-phase wall time: machine noise, never compared.
    } else if (key == "rows") {
      artifact.rows = read_rows(value);
      saw_rows = true;
    } else {
      fail("unknown top-level key '" + key + "'");
    }
  }
  if (!saw_target) fail("artifact missing 'target'");
  if (!saw_rows) fail("artifact missing 'rows'");
  return artifact;
}

BenchArtifact load_bench_json(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("bench json: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_bench_json(buffer.str());
}

BenchDiff diff_bench(const BenchArtifact& golden,
                     const BenchArtifact& candidate,
                     const BenchDiffOptions& options) {
  BenchDiff diff;
  auto mismatch = [&](std::string what) {
    diff.mismatches.push_back(std::move(what));
  };

  if (golden.truncated) mismatch("golden is truncated (a partial sweep)");
  if (candidate.truncated) {
    mismatch("candidate is truncated (a partial sweep)");
  }
  if (golden.target != candidate.target) {
    mismatch("target: golden '" + golden.target + "' vs candidate '" +
             candidate.target + "'");
  }
  if (golden.rows.size() != candidate.rows.size()) {
    mismatch("row count: golden " + std::to_string(golden.rows.size()) +
             " vs candidate " + std::to_string(candidate.rows.size()));
    return diff;  // index-matched comparison is meaningless past this point
  }

  for (std::size_t r = 0; r < golden.rows.size(); ++r) {
    const BenchRow& grow = golden.rows[r];
    const BenchRow& crow = candidate.rows[r];
    const std::string label = row_label(golden, r);
    if (grow.size() != crow.size()) {
      mismatch(label + ": cell count " + std::to_string(grow.size()) +
               " vs " + std::to_string(crow.size()));
      continue;
    }
    for (std::size_t f = 0; f < grow.size(); ++f) {
      if (grow[f].first != crow[f].first) {
        mismatch(label + ": column '" + grow[f].first + "' vs '" +
                 crow[f].first + "'");
        continue;
      }
      const std::string& gcell = grow[f].second;
      const std::string& ccell = crow[f].second;
      double gvalue = 0.0;
      double cvalue = 0.0;
      if (parse_cell_number(gcell, gvalue) &&
          parse_cell_number(ccell, cvalue)) {
        const double bound =
            options.atol + options.rtol * std::fabs(gvalue);
        if (std::fabs(cvalue - gvalue) > bound) {
          mismatch(label + ", " + grow[f].first + ": golden " + gcell +
                   " vs candidate " + ccell + " (tolerance " +
                   std::to_string(bound) + ")");
        }
      } else if (gcell != ccell) {
        mismatch(label + ", " + grow[f].first + ": golden '" + gcell +
                 "' vs candidate '" + ccell + "'");
      }
    }
  }
  return diff;
}

}  // namespace pet::verify

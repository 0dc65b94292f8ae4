// obscheck — structural validator for pet.obs.v1 artifacts (the
// metrics-schema smoke gate wired into CI; docs/observability.md).
//
//   obscheck --metrics=FILE   validate a petsim --metrics-out document
//   obscheck --bench=FILE     validate the "metrics" member of a
//                             BENCH_<target>.json artifact
//   obscheck --jsonl=FILE     validate a span/event/slot JSONL trace
//   obscheck --svc-metrics=FILE validate a petd kMetrics snapshot ("profile"
//                             optional — the deterministic scope omits it —
//                             plus the "service" member's shape)
//   obscheck --prom=FILE      validate a Prometheus text exposition dump
//   obscheck --require=PREFIX require at least one counter whose name
//                             starts with PREFIX (repeatable; applies to
//                             the last --metrics/--bench document given)
//
// Exit 0 when every file validates, 1 on a schema violation, 2 on usage
// errors.  Checks are structural (types, required keys, histogram shape),
// not numeric: values are run-dependent by design.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonlite.hpp"
#include "verify/benchjson.hpp"

namespace {

using pet::obs::JsonValue;

int usage() {
  std::fprintf(stderr,
               "usage: obscheck [--metrics=FILE] [--bench=FILE] "
               "[--jsonl=FILE] [--svc-metrics=FILE] [--prom=FILE] "
               "[--require=PREFIX]...\n");
  return 2;
}

bool g_ok = true;

void fail(const std::string& what) {
  std::fprintf(stderr, "obscheck: %s\n", what.c_str());
  g_ok = false;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Every member of `object` must map a string key to a number.
void check_numeric_object(const JsonValue* object, const std::string& where) {
  if (object == nullptr || !object->is_object()) {
    fail(where + " missing or not an object");
    return;
  }
  for (const auto& [key, value] : object->object) {
    if (!value.is_number()) {
      fail(where + "." + key + " is not a number");
    }
  }
}

void check_histograms(const JsonValue* histograms, const std::string& where) {
  if (histograms == nullptr || !histograms->is_object()) {
    fail(where + " missing or not an object");
    return;
  }
  for (const auto& [name, hist] : histograms->object) {
    const JsonValue* bounds = hist.find("bounds");
    const JsonValue* counts = hist.find("counts");
    if (bounds == nullptr || !bounds->is_array() || counts == nullptr ||
        !counts->is_array()) {
      fail(where + "." + name + " needs bounds/counts arrays");
      continue;
    }
    if (counts->array.size() != bounds->array.size() + 1) {
      fail(where + "." + name + " counts must have bounds+1 entries");
    }
  }
}

/// Validate one pet.obs.v1 document (already parsed).  The deterministic
/// scope of a petd kMetrics snapshot legitimately has no "profile" member;
/// `require_profile=false` relaxes that one check.
void check_metrics_document(const JsonValue& root, const std::string& where,
                            const std::vector<std::string>& required,
                            bool require_profile = true) {
  if (!root.is_object()) {
    fail(where + ": document is not an object");
    return;
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "pet.obs.v1") {
    fail(where + ": schema is not \"pet.obs.v1\"");
  }
  const JsonValue* level = root.find("level");
  if (level == nullptr || !level->is_string() ||
      (level->string != "off" && level->string != "counters" &&
       level->string != "full")) {
    fail(where + ": level must be off|counters|full");
  }
  check_numeric_object(root.find("counters"), where + ": counters");
  check_numeric_object(root.find("gauges"), where + ": gauges");
  check_histograms(root.find("histograms"), where + ": histograms");

  const JsonValue* profile = root.find("profile");
  if (profile == nullptr || !profile->is_object()) {
    if (require_profile || profile != nullptr) {
      fail(where + ": profile missing or not an object");
    }
  } else {
    check_numeric_object(profile->find("counters"), where + ": profile.counters");
    const JsonValue* phases = profile->find("phases");
    if (phases != nullptr) {
      if (!phases->is_array()) {
        fail(where + ": profile.phases is not an array");
      } else {
        for (const JsonValue& phase : phases->array) {
          if (phase.find("name") == nullptr ||
              phase.find("wall_seconds") == nullptr) {
            fail(where + ": phase entry needs name/wall_seconds");
          }
        }
      }
    }
    const JsonValue* pool = profile->find("pool");
    if (pool != nullptr && pool->find("threads") == nullptr) {
      fail(where + ": profile.pool needs threads");
    }
  }

  const JsonValue* counters = root.find("counters");
  for (const std::string& prefix : required) {
    bool found = false;
    if (counters != nullptr && counters->is_object()) {
      for (const auto& [key, value] : counters->object) {
        (void)value;
        if (key.rfind(prefix, 0) == 0) { found = true; break; }
      }
    }
    if (!found) {
      fail(where + ": no counter with prefix '" + prefix + "'");
    }
  }
}

/// Shape of the petd kMetrics "service" member: per-population stats
/// objects (numeric fields + a latency_slots histogram), numeric totals,
/// numeric connection counters, and flight-recorder occupancy.
void check_service_member(const JsonValue* service, const std::string& where) {
  if (service == nullptr || !service->is_object()) {
    fail(where + " missing or not an object");
    return;
  }
  const JsonValue* populations = service->find("populations");
  if (populations == nullptr || !populations->is_object()) {
    fail(where + ".populations missing or not an object");
  } else {
    for (const auto& [id, stats] : populations->object) {
      const std::string pop_where = where + ".populations." + id;
      if (!stats.is_object()) {
        fail(pop_where + " is not an object");
        continue;
      }
      for (const auto& [key, value] : stats.object) {
        if (key == "latency_slots") continue;
        if (!value.is_number()) fail(pop_where + "." + key + " is not a number");
      }
      const JsonValue* hist = stats.find("latency_slots");
      if (hist == nullptr) {
        fail(pop_where + " has no latency_slots histogram");
      } else {
        // Reuse the histogram shape check via a one-entry wrapper object.
        JsonValue wrapper;
        wrapper.kind = JsonValue::Kind::kObject;
        wrapper.object.emplace_back("latency_slots", *hist);
        check_histograms(&wrapper, pop_where);
      }
    }
  }
  const JsonValue* totals = service->find("totals");
  if (totals == nullptr || !totals->is_object()) {
    fail(where + ".totals missing or not an object");
  } else {
    for (const auto& [key, value] : totals->object) {
      if (key == "latency_slots") continue;
      if (!value.is_number()) fail(where + ".totals." + key + " is not a number");
    }
  }
  check_numeric_object(service->find("connections"), where + ".connections");
  const JsonValue* flight = service->find("flight");
  if (flight == nullptr || !flight->is_object() ||
      flight->find("capacity") == nullptr ||
      flight->find("recorded") == nullptr) {
    fail(where + ".flight needs capacity/recorded");
  }
}

/// A petd kMetrics snapshot: pet.obs.v1 shape with "profile" optional (the
/// deterministic scope omits it) and, when present, a well-formed "service"
/// member.  Population-scope documents have neither — both stay optional.
void check_svc_metrics_document(const JsonValue& root, const std::string& where,
                                const std::vector<std::string>& required) {
  check_metrics_document(root, where, required, /*require_profile=*/false);
  if (!root.is_object()) return;
  const JsonValue* service = root.find("service");
  if (service != nullptr) check_service_member(service, where + ": service");
}

/// Prometheus text exposition: every non-comment line must be
/// `name[{labels}] value`, names restricted to [a-zA-Z_:][a-zA-Z0-9_:]*,
/// values numeric (or +Inf/-Inf/NaN), and at least one sample present.
void check_prometheus(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    fail("cannot open '" + path + "'");
    return;
  }
  const auto valid_name = [](const std::string& name) {
    if (name.empty()) return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         c == '_' || c == ':';
      const bool digit = c >= '0' && c <= '9';
      if (!(alpha || (digit && i > 0))) return false;
    }
    return true;
  };
  std::string line;
  std::size_t line_number = 0;
  std::size_t samples = 0;
  while (std::getline(file, line)) {
    ++line_number;
    const std::string where = path + ":" + std::to_string(line_number);
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only "# TYPE name kind" and "# HELP name text" comments are emitted.
      std::istringstream comment(line);
      std::string hash, keyword, name;
      comment >> hash >> keyword >> name;
      if (keyword != "TYPE" && keyword != "HELP") {
        fail(where + ": unknown comment keyword '" + keyword + "'");
      } else if (!valid_name(name)) {
        fail(where + ": invalid metric name '" + name + "'");
      }
      continue;
    }
    // Sample: name or name{labels}, one space, value.
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      fail(where + ": sample is not 'name value'");
      continue;
    }
    std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      if (name.back() != '}') {
        fail(where + ": unterminated label set");
        continue;
      }
      name = name.substr(0, brace);
    }
    if (!valid_name(name)) {
      fail(where + ": invalid metric name '" + name + "'");
      continue;
    }
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        fail(where + ": sample value '" + value + "' is not numeric");
        continue;
      }
    }
    ++samples;
  }
  if (samples == 0) fail(path + ": no samples");
}

void check_jsonl(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    fail("cannot open '" + path + "'");
    return;
  }
  std::string line;
  std::size_t line_number = 0;
  std::size_t records = 0;
  while (std::getline(file, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::string where =
        path + ":" + std::to_string(line_number);
    JsonValue record;
    try {
      record = pet::obs::parse_json(line);
    } catch (const std::exception& error) {
      fail(where + ": " + error.what());
      continue;
    }
    ++records;
    const JsonValue* type = record.find("type");
    if (type == nullptr || !type->is_string()) {
      fail(where + ": record has no \"type\"");
      continue;
    }
    const JsonValue* name = record.find("name");
    if (type->string == "span") {
      if (record.find("trial") == nullptr ||
          record.find("slot_begin") == nullptr ||
          record.find("slot_end") == nullptr || name == nullptr) {
        fail(where + ": span needs name/trial/slot_begin/slot_end");
      }
    } else if (type->string == "event") {
      if (record.find("trial") == nullptr || record.find("slot") == nullptr ||
          name == nullptr) {
        fail(where + ": event needs name/trial/slot");
      }
    } else if (type->string == "slot") {
      if (record.find("trial") == nullptr || record.find("slot") == nullptr ||
          record.find("command") == nullptr ||
          record.find("outcome") == nullptr) {
        fail(where + ": slot needs trial/slot/command/outcome");
      }
    } else {
      fail(where + ": unknown record type '" + type->string + "'");
    }
  }
  if (records == 0) fail(path + ": no JSONL records");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  // Two passes so --require applies regardless of flag order.
  std::vector<std::string> required;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--require=", 10) == 0) {
      required.emplace_back(argv[i] + 10);
    }
  }

  bool saw_input = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg.rfind("--metrics=", 0) == 0) {
        saw_input = true;
        const std::string path = arg.substr(10);
        check_metrics_document(pet::obs::parse_json(read_file(path)), path,
                               required);
      } else if (arg.rfind("--bench=", 0) == 0) {
        saw_input = true;
        const std::string path = arg.substr(8);
        const pet::verify::BenchArtifact artifact =
            pet::verify::load_bench_json(path);
        if (artifact.metrics.kind == JsonValue::Kind::kNull) {
          fail(path + ": artifact has no \"metrics\" member");
        } else {
          check_metrics_document(artifact.metrics, path + ": metrics",
                                 required);
        }
      } else if (arg.rfind("--jsonl=", 0) == 0) {
        saw_input = true;
        check_jsonl(arg.substr(8));
      } else if (arg.rfind("--svc-metrics=", 0) == 0) {
        saw_input = true;
        const std::string path = arg.substr(14);
        check_svc_metrics_document(pet::obs::parse_json(read_file(path)),
                                   path, required);
      } else if (arg.rfind("--prom=", 0) == 0) {
        saw_input = true;
        check_prometheus(arg.substr(7));
      } else if (arg.rfind("--require=", 0) == 0) {
        // collected above
      } else {
        return usage();
      }
    } catch (const std::exception& error) {
      fail(error.what());
    }
  }
  if (!saw_input) return usage();
  if (g_ok) std::printf("obscheck: ok\n");
  return g_ok ? 0 : 1;
}

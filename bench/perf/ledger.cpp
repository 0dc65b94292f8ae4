#include "ledger.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

#include "common/simd.hpp"
#include "obs/jsonlite.hpp"

namespace pet::perf {

namespace {

constexpr std::size_t kKeptFailures = 8;

[[nodiscard]] std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

[[nodiscard]] std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The commit the sources came from, read straight from .git (no git
/// process); "unknown" outside a git checkout.
[[nodiscard]] std::string read_commit(const std::string& repo_root) {
  const std::string git = repo_root + "/.git/";
  const std::string head = read_first_line(git + "HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  const std::string loose = read_first_line(git + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(git + "packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos && line.compare(space + 1, ref.size(), ref) == 0) {
      return line.substr(0, space);
    }
  }
  return "unknown";
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double process_cpu_s() noexcept {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double thread_cpu_s() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double max_rss_mb() noexcept {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = std::min(
      values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

// --- catalogue -------------------------------------------------------------

Catalogue load_catalogue(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perf_ledger: cannot read " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const obs::JsonValue doc = obs::parse_json(text);
  auto list = [&](const char* key) {
    std::vector<MetricSpec> specs;
    const obs::JsonValue* entries = doc.find(key);
    if (entries != nullptr && entries->is_array()) {
      for (const obs::JsonValue& entry : entries->array) {
        const obs::JsonValue* name = entry.find("name");
        const obs::JsonValue* unit = entry.find("unit");
        if (name == nullptr || !name->is_string() || unit == nullptr ||
            !unit->is_string()) {
          throw std::runtime_error("perf_ledger: " + path + ": a " + key +
                                   " entry lacks a name or unit");
        }
        specs.push_back({name->string, unit->string});
      }
    }
    if (specs.empty()) {
      throw std::runtime_error("perf_ledger: " + path + " lists no " + key +
                               " metrics");
    }
    return specs;
  };
  return {list("end_to_end"), list("per_layer")};
}

// --- WorkloadResult --------------------------------------------------------

WorkloadResult::WorkloadResult(std::string workload, bool traced,
                               const std::vector<MetricSpec>& specs)
    : workload_(std::move(workload)), traced_(traced) {
  for (const MetricSpec& spec : specs) {
    metrics_.push_back({spec.name, spec.unit, 0.0, 0});
  }
}

void WorkloadResult::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < kKeptFailures) failures_.push_back(why);
}

void WorkloadResult::set(std::string_view name, double value,
                         std::uint64_t samples) {
  for (Metric& metric : metrics_) {
    if (metric.name != name) continue;
    if (!std::isfinite(value)) {
      fail("metric " + metric.name + " is not finite");
      value = 0.0;
    }
    metric.value = value;
    metric.samples = samples;
    return;
  }
  throw std::logic_error("perf_ledger: uncatalogued metric " +
                         std::string(name));
}

void WorkloadResult::note(std::string name, std::string unit, double value,
                          std::uint64_t samples) {
  notes_.push_back({std::move(name), std::move(unit), value, samples});
}

void WorkloadResult::print(std::FILE* out) const {
  std::fprintf(out, "\n== %s (%s) ==\n", workload_.c_str(),
               traced_ ? "traced: per-layer" : "untraced: end-to-end");
  std::fprintf(out, "  %-26s %16s  %-7s %10s\n", "metric", "value", "unit",
               "samples");
  auto row = [out](const Metric& m) {
    char samples[24] = "-";
    if (m.samples != 0) {
      std::snprintf(samples, sizeof samples, "%llu",
                    static_cast<unsigned long long>(m.samples));
    }
    std::fprintf(out, "  %-26s %16.6g  %-7s %10s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), samples);
  };
  for (const Metric& m : metrics_) row(m);
  if (!notes_.empty()) {
    std::fprintf(out, "  -- diagnostics --\n");
    for (const Metric& m : notes_) row(m);
  }
  std::fprintf(out, "  ops: %llu attempted, %llu failed (fail_ratio %g)\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_));
  for (const std::string& why : failures_) {
    std::fprintf(out, "  FAIL: %s\n", why.c_str());
  }
}

std::string WorkloadResult::json_line() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           json_number(metrics_[i].value) + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- SpanLog ---------------------------------------------------------------

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint64_t SpanLog::add(std::uint64_t parent, std::string_view name,
                           std::uint64_t key, std::uint64_t start_ns,
                           std::uint64_t end_ns) {
  std::lock_guard lock(mutex_);
  const std::uint64_t id = next_id_++;
  if (spans_.size() >= capacity_) {
    ++dropped_;
  } else {
    spans_.push_back({id, parent, key, start_ns, end_ns, intern(name)});
  }
  return id;
}

void SpanLog::begin_workload(std::string workload) {
  std::lock_guard lock(mutex_);
  workloads_.emplace_back(std::move(workload), spans_.size());
}

std::vector<SpanLog::LayerSelf> SpanLog::self_time(
    std::string_view workload) const {
  std::lock_guard lock(mutex_);
  std::size_t begin = spans_.size();
  std::size_t end = spans_.size();
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    if (workloads_[i].first != workload) continue;
    begin = workloads_[i].second;
    end = i + 1 < workloads_.size() ? workloads_[i + 1].second : spans_.size();
  }
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (std::size_t i = begin; i < end; ++i) {
    if (spans_[i].parent != 0) {
      child_ns[spans_[i].parent] += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::vector<LayerSelf> layers;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& span = spans_[i];
    const std::string& name = names_[span.name];
    const std::string layer = name.substr(0, name.find('.'));
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const LayerSelf& l) { return l.layer == layer; });
    if (it == layers.end()) {
      layers.push_back({layer, 0, 0.0});
      it = layers.end() - 1;
    }
    const std::uint64_t total = span.end_ns - span.start_ns;
    const auto children = child_ns.find(span.id);
    const std::uint64_t covered =
        children == child_ns.end() ? 0 : std::min(children->second, total);
    ++it->spans;
    it->self_ms += static_cast<double>(total - covered) * 1e-6;
  }
  return layers;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("perf_ledger: cannot write " + path);
  std::size_t workload = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    while (workload + 1 < workloads_.size() &&
           workloads_[workload + 1].second <= i) {
      ++workload;
    }
    const Span& span = spans_[i];
    char key[24];
    std::snprintf(key, sizeof key, "0x%016llx",
                  static_cast<unsigned long long>(span.key));
    out << "{\"workload\":\""
        << (workloads_.empty() ? "" : workloads_[workload].first)
        << "\",\"span\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << names_[span.name] << "\",\"key\":\"" << key
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  if (!out) throw std::runtime_error("perf_ledger: short write to " + path);
}

// --- fingerprint -----------------------------------------------------------

Fingerprint fingerprint(const std::string& repo_root,
                        const std::string& petd_flags) {
  Fingerprint fp;
  fp.nproc = static_cast<unsigned>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  fp.simd = std::string(to_string(simd_tier()));
  fp.compiler = PERF_LEDGER_COMPILER;
  fp.build_type = PERF_LEDGER_BUILD_TYPE;
  fp.pet_obs = PERF_LEDGER_PET_OBS;
  fp.petd_flags = petd_flags;
  fp.commit = read_commit(repo_root);
  return fp;
}

void print_fingerprint(std::FILE* out, const Fingerprint& fp) {
  std::fprintf(out,
               "fingerprint: nproc=%u simd=%s compiler=\"%s\" build=%s "
               "PET_OBS=%s commit=%s\n"
               "             petd %s\n",
               fp.nproc, fp.simd.c_str(), fp.compiler.c_str(),
               fp.build_type.c_str(), fp.pet_obs.c_str(), fp.commit.c_str(),
               fp.petd_flags.c_str());
}

}  // namespace pet::perf

// perf_ledger result model: the metric catalogue, one workload's results,
// the in-memory span log of a traced run, and the run fingerprint.
//
// Every timing here is taken from outside the library: the benchmark wraps
// its own calls into each module's public functions, and reads petd's
// existing kMetrics / kFlightDump replies.  Nothing under src/ or tools/
// knows it is being measured.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pet::perf {

// --- clocks and process accounting ----------------------------------------

[[nodiscard]] std::uint64_t now_ns() noexcept;  ///< steady clock
[[nodiscard]] double process_cpu_s() noexcept;  ///< this process, user+sys
[[nodiscard]] double thread_cpu_s() noexcept;   ///< calling thread
[[nodiscard]] double max_rss_mb() noexcept;     ///< this process, ru_maxrss

/// Nearest-rank quantile (q in [0, 1]) of `values`, which is reordered in
/// place; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double>& values, double q);

// --- metric catalogue ------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metric names and units, read from BENCHMARK.json at start-up so the
/// benchmark and its description cannot drift apart.
struct Catalogue {
  std::vector<MetricSpec> end_to_end;  ///< every untraced run reports these
  /// Every traced run reports these; a layer the workload does not reach
  /// reports 0 (the README's layer map says where each one shows).
  std::vector<MetricSpec> per_layer;
};

/// Parse BENCHMARK.json's "end_to_end" and "per_layer" lists; throws if the
/// file is missing or either list is absent or empty.
[[nodiscard]] Catalogue load_catalogue(const std::string& path);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;  ///< observations behind a statistic (0: n/a)
};

/// One workload run: its operation counts, failures and metrics.
class WorkloadResult {
 public:
  /// `specs` is the catalogue list this run reports: per_layer when
  /// `traced`, end_to_end otherwise.
  WorkloadResult(std::string workload, bool traced,
                 const std::vector<MetricSpec>& specs);

  [[nodiscard]] const std::string& workload() const noexcept {
    return workload_;
  }
  [[nodiscard]] bool traced() const noexcept { return traced_; }

  void attempt(std::uint64_t ops = 1) noexcept { attempted_ += ops; }
  /// Count one failed operation; the first few reasons are kept for the
  /// report.
  void fail(const std::string& why);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

  /// Set a catalogued metric (end-to-end on untraced runs, per-layer on
  /// traced runs); an uncatalogued name is a programming error and throws.
  void set(std::string_view name, double value, std::uint64_t samples = 0);
  /// Report-only numbers outside the catalogue (p999, sample counts, ...).
  void note(std::string name, std::string unit, double value,
            std::uint64_t samples = 0);

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<Metric>& notes() const noexcept {
    return notes_;
  }

  /// Human-readable table: every metric with its unit and sample count.
  void print(std::FILE* out) const;
  /// The one-line result object: correct / attempted / failed / metrics.
  [[nodiscard]] std::string json_line() const;

 private:
  std::string workload_;
  bool traced_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
};

// --- spans -----------------------------------------------------------------

/// One timed interval of a traced run.  Spans of one trial or request share
/// `key` (the trial index, or petd's content-addressed request id).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: root
  std::uint64_t key = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t name = 0;  ///< index into SpanLog's name table
};

/// Spans kept in memory while a traced run executes and written as JSONL
/// when it ends.  Bounded: spans beyond `capacity` are counted, not kept.
/// Thread-safe (sweep trials record from every runner worker).
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Record a span and return its id (also when the span was dropped, so
  /// children can still name it).
  std::uint64_t add(std::uint64_t parent, std::string_view name,
                    std::uint64_t key, std::uint64_t start_ns,
                    std::uint64_t end_ns);

  struct LayerSelf {
    std::string layer;  ///< span-name prefix before the first '.'
    std::uint64_t spans = 0;
    double self_ms = 0.0;  ///< duration minus time covered by children
  };
  /// Self time per layer over the spans of `workload` (recorded since the
  /// matching begin_workload()).
  [[nodiscard]] std::vector<LayerSelf> self_time(
      std::string_view workload) const;

  /// Tag every span recorded from now on with `workload`.
  void begin_workload(std::string workload);

  /// Append every kept span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint32_t intern(std::string_view name);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, std::size_t>> workloads_;  ///< first span
  std::uint64_t dropped_ = 0;
};

// --- fingerprint -----------------------------------------------------------

/// What a number was measured on: results only compare across runs that
/// share it.
struct Fingerprint {
  unsigned nproc = 0;
  std::string simd;
  std::string compiler;
  std::string build_type;
  std::string pet_obs;
  std::string petd_flags;
  std::string commit;
};

[[nodiscard]] Fingerprint fingerprint(const std::string& repo_root,
                                      const std::string& petd_flags);
void print_fingerprint(std::FILE* out, const Fingerprint& fp);

}  // namespace pet::perf

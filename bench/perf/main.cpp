// perf_ledger: one command that measures the paper sweep and the petd
// socket path end to end, and — with --trace — layer by layer
// (bench/perf/README.md).
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "runtime/cancel.hpp"
#include "workloads.hpp"

namespace {

using namespace pet::perf;

constexpr const char* kWorkloads[] = {"sweep", "wire_cold", "wire_hot",
                                      "wire_churn"};
constexpr std::size_t kSpanCapacity = 1u << 20;

int usage() {
  std::fprintf(
      stderr,
      "perf_ledger -- end-to-end and per-layer performance ledger\n"
      "usage: perf_ledger [options]\n"
      "  --workload=NAME  sweep|wire_cold|wire_hot|wire_churn|all "
      "(default all)\n"
      "  --seed=S         master seed for every input (default 1)\n"
      "  --seconds=T      timed window per workload (default 20)\n"
      "  --trace=PATH     after each untraced run, a traced run: spans to\n"
      "                   PATH as JSONL, per-layer metrics and self time\n"
      "  --trace-only     skip the untraced runs (needs --trace)\n"
      "  --json           print the result object of the one run as the\n"
      "                   last line (one workload; untraced or --trace-only)\n"
      "  --smoke          every workload for 1 s untraced and 1 s traced\n"
      "  --petd=PATH      petd binary (default: built with perf_ledger)\n"
      "  --golden=PATH    table3 golden (default: the source tree's)\n"
      "  --work-dir=DIR   where petd's private socket directory goes\n"
      "                   (default .; keep it short, sockets cap at 107 "
      "bytes)\n");
  return 2;
}

struct Options {
  std::vector<std::string> workloads;
  RunConfig config;
  std::string trace_path;
  bool trace_only = false;
  bool json = false;
  bool smoke = false;
};

bool value_of(std::string_view arg, std::string_view key, std::string& out) {
  if (arg.rfind(key, 0) != 0) return false;
  out = std::string(arg.substr(key.size()));
  return true;
}

int parse(int argc, char** argv, Options& options) {
  std::string workload = "all";
  options.config.petd_path = PERF_LEDGER_PETD;
  options.config.golden_path =
      std::string(PERF_LEDGER_REPO_ROOT) + "/bench/golden/BENCH_table3_pet_slots.json";
  options.config.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") return usage();
    if (value_of(arg, "--workload=", value)) {
      workload = value;
    } else if (value_of(arg, "--seed=", value)) {
      options.config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (value_of(arg, "--seconds=", value)) {
      options.config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (value_of(arg, "--trace=", value)) {
      options.trace_path = value;
    } else if (arg == "--trace-only") {
      options.trace_only = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (value_of(arg, "--petd=", value)) {
      options.config.petd_path = value;
    } else if (value_of(arg, "--golden=", value)) {
      options.config.golden_path = value;
    } else if (value_of(arg, "--work-dir=", value)) {
      options.config.work_dir = value;
    } else {
      std::fprintf(stderr, "perf_ledger: unknown argument %s\n", argv[i]);
      return usage();
    }
  }
  if (options.smoke) {
    options.config.seed = 1;
    options.config.seconds = 1.0;
    options.config.warmup_s = 0.2;
    if (options.trace_path.empty()) options.trace_path = "perf_ledger_smoke.jsonl";
  }
  for (const char* name : kWorkloads) {
    if (workload == "all" || workload == name) options.workloads.emplace_back(name);
  }
  if (options.workloads.empty()) {
    std::fprintf(stderr, "perf_ledger: unknown workload %s\n", workload.c_str());
    return usage();
  }
  if (options.config.seed == 0 || !(options.config.seconds > 0.0)) {
    std::fprintf(stderr, "perf_ledger: need --seed >= 1 and --seconds > 0\n");
    return usage();
  }
  if (options.trace_only && options.trace_path.empty()) {
    std::fprintf(stderr, "perf_ledger: --trace-only needs --trace=PATH\n");
    return usage();
  }
  if (options.json && (options.workloads.size() != 1 ||
                       (!options.trace_path.empty() && !options.trace_only))) {
    std::fprintf(stderr,
                 "perf_ledger: --json reports exactly one run: one workload, "
                 "untraced or --trace-only\n");
    return usage();
  }
  return 0;
}

void run_one(const std::string& name, const RunConfig& config,
             WorkloadResult& result) {
  try {
    if (name == "sweep") {
      run_sweep(config, result);
    } else if (name == "wire_cold") {
      run_wire(WireWorkload::kCold, config, result);
    } else if (name == "wire_hot") {
      run_wire(WireWorkload::kHot, config, result);
    } else {
      run_wire(WireWorkload::kChurn, config, result);
    }
  } catch (const std::exception& e) {
    result.fail(e.what());
  }
}

void print_self_time(const SpanLog& spans, const std::string& workload) {
  const std::vector<SpanLog::LayerSelf> layers = spans.self_time(workload);
  double total = 0.0;
  for (const auto& layer : layers) total += layer.self_ms;
  std::printf("  -- self time per layer (traced half + microbenches) --\n");
  for (const auto& layer : layers) {
    std::printf("  %-10s %10llu spans %12.3f ms %6.1f%%\n", layer.layer.c_str(),
                static_cast<unsigned long long>(layer.spans), layer.self_ms,
                total > 0.0 ? 100.0 * layer.self_ms / total : 0.0);
  }
}

void print_summary(const std::vector<WorkloadResult>& results,
                   const Catalogue& catalogue) {
  std::printf("\n== end-to-end summary ==\n  %-11s", "workload");
  for (const MetricSpec& spec : catalogue.end_to_end) {
    std::printf(" %14s", (spec.name + " " + spec.unit).c_str());
  }
  std::printf("\n");
  for (const WorkloadResult& r : results) {
    if (r.traced()) continue;
    std::printf("  %-11s", r.workload().c_str());
    for (const Metric& m : r.metrics()) std::printf(" %14.6g", m.value);
    std::printf("\n");
  }
}

/// Every end-to-end metric is a rate, latency, size or time, so a 0 in a
/// run that has not already failed means the workload never measured it.
void check_measured(WorkloadResult& result) {
  if (result.traced() || result.failed() != 0) return;
  for (const Metric& m : result.metrics()) {
    if (!(m.value > 0.0)) result.fail("end-to-end metric " + m.name + " is 0");
  }
}

/// What a run must not leave behind: a petd child (running or unreaped) or
/// a petd socket directory under the work dir.
std::vector<std::string> leftovers(const std::string& work_dir) {
  std::vector<std::string> found;
  int status = 0;
  if (::waitpid(-1, &status, WNOHANG) >= 0) found.push_back("a child process");
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(work_dir, ec)) {
    if (entry.path().filename().string().rfind("petd.", 0) == 0) {
      found.push_back(entry.path().string());
    }
  }
  return found;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (const int rc = parse(argc, argv, options); rc != 0) return rc;

  // The level every bench harness runs at by default.
  pet::obs::set_level(pet::obs::Level::kCounters);
  // SIGINT/SIGTERM trip a latch the workloads poll; they then stop their
  // load, SIGTERM and reap petd, and remove its socket before exiting.
  pet::runtime::install_shutdown_handlers();
  std::signal(SIGPIPE, SIG_IGN);

  Catalogue catalogue;
  try {
    catalogue = load_catalogue(std::string(PERF_LEDGER_REPO_ROOT) +
                               "/BENCHMARK.json");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::string petd_flags = "--socket=<private>";
  for (const char* flag : kPetdFlags) petd_flags += std::string(" ") + flag;
  print_fingerprint(stdout, fingerprint(PERF_LEDGER_REPO_ROOT, petd_flags));
  std::printf("run: seed=%llu window=%gs warmup=%gs setup_reps=%u\n",
              static_cast<unsigned long long>(options.config.seed),
              options.config.seconds, options.config.warmup_s,
              options.config.setup_reps);

  SpanLog spans(kSpanCapacity);
  std::vector<WorkloadResult> results;
  for (const std::string& name : options.workloads) {
    if (!options.trace_only) {
      results.emplace_back(name, false, catalogue.end_to_end);
      run_one(name, options.config, results.back());
      check_measured(results.back());
      results.back().print(stdout);
    }
    if (!options.trace_path.empty() && !pet::runtime::shutdown_requested()) {
      RunConfig traced = options.config;
      traced.spans = &spans;
      traced.setup_reps = 1;  // setup_s is an end-to-end metric
      results.emplace_back(name, true, catalogue.per_layer);
      run_one(name, traced, results.back());
      results.back().print(stdout);
      print_self_time(spans, name);
    }
    if (pet::runtime::shutdown_requested()) break;
  }
  if (!options.trace_path.empty()) {
    try {
      spans.write_jsonl(options.trace_path);
      std::printf("\ntrace: spans written to %s (%llu dropped beyond %zu)\n",
                  options.trace_path.c_str(),
                  static_cast<unsigned long long>(spans.dropped()),
                  kSpanCapacity);
    } catch (const std::exception& e) {
      std::printf("\ntrace: %s\n", e.what());
      return 1;
    }
  }
  if (results.size() > 1) print_summary(results, catalogue);

  // A leftover daemon or socket fails the run; the result object printed
  // below is the last run's, so it carries the failure.
  for (const std::string& what : leftovers(options.config.work_dir)) {
    std::printf("FAIL: left behind: %s\n", what.c_str());
    if (!results.empty()) results.back().fail("left behind: " + what);
  }
  bool ok = !results.empty();
  for (const WorkloadResult& r : results) {
    ok = ok && r.failed() == 0 && r.attempted() > 0;
  }
  if (pet::runtime::shutdown_requested()) {
    std::fflush(stdout);
    return 130;
  }
  if (options.json) std::printf("%s\n", results.back().json_line().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

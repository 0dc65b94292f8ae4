// A private petd for one workload run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace pet::perf {

/// Spawns petd on a socket inside a fresh mkdtemp directory under
/// `work_dir` and returns once a connect() succeeds (retried every 1 ms, so
/// readiness costs set-up time only to the millisecond).  petd runs in its
/// own process group, so a terminal Ctrl-C reaches only the benchmark,
/// which then stops petd itself; PR_SET_PDEATHSIG covers a benchmark that
/// is killed outright.
class PetdProcess {
 public:
  PetdProcess(const std::string& petd_path, const std::string& work_dir);
  /// Stops petd if stop() was not called (exception and early-return
  /// paths); never throws.
  ~PetdProcess();

  PetdProcess(const PetdProcess&) = delete;
  PetdProcess& operator=(const PetdProcess&) = delete;

  /// SIGTERM, reap, unlink the socket and remove the directory.  Returns
  /// petd's exit status: 0 after a clean drain, -1 when it had to be
  /// killed or died by a signal.  Idempotent.
  int stop();

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_path_;
  }

  /// Read from /proc/<pid>: CPU time, context switches summed over every
  /// thread, thread count, and peak resident set.
  struct Sample {
    double cpu_s = 0.0;
    std::uint64_t ctxsw = 0;
    std::uint64_t threads = 0;
    double hwm_mb = 0.0;
  };
  [[nodiscard]] Sample sample() const;

 private:
  std::string dir_;
  std::string socket_path_;
  pid_t pid_ = -1;
  int status_ = -1;
};

/// Blocking connect to a Unix socket; -1 on failure.
[[nodiscard]] int connect_unix(const std::string& path);

}  // namespace pet::perf

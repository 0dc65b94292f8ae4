#include "daemon.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "workloads.hpp"

namespace pet::perf {

namespace {

constexpr std::uint64_t kStartTimeoutNs = 10'000'000'000ULL;
constexpr std::uint64_t kStopTimeoutNs = 10'000'000'000ULL;

/// "Key:   value ..." line of a /proc status file, as a number.
[[nodiscard]] std::uint64_t status_field(const std::string& path,
                                         const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

PetdProcess::PetdProcess(const std::string& petd_path,
                         const std::string& work_dir) {
  std::string pattern = work_dir + "/petd.XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("perf_ledger: mkdtemp under " + work_dir +
                             " failed: " + std::strerror(errno));
  }
  dir_ = pattern;
  socket_path_ = dir_ + "/petd.sock";
  if (socket_path_.size() >= sizeof(sockaddr_un{}.sun_path)) {
    ::rmdir(dir_.c_str());
    throw std::runtime_error("perf_ledger: socket path " + socket_path_ +
                             " is too long; pass a shorter --work-dir");
  }

  std::vector<std::string> args{petd_path, "--socket=" + socket_path_};
  for (const char* flag : kPetdFlags) args.emplace_back(flag);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::rmdir(dir_.c_str());
    throw std::runtime_error("perf_ledger: fork failed");
  }
  if (pid_ == 0) {
    // Child: async-signal-safe calls only until exec.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(126);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  const std::uint64_t deadline = now_ns() + kStartTimeoutNs;
  for (;;) {
    const int fd = connect_unix(socket_path_);
    if (fd >= 0) {
      ::close(fd);
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      ::unlink(socket_path_.c_str());
      ::rmdir(dir_.c_str());
      throw std::runtime_error("perf_ledger: petd (" + petd_path +
                               ") exited during start-up");
    }
    if (now_ns() > deadline) {
      stop();
      throw std::runtime_error("perf_ledger: petd not accepting after 10 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

PetdProcess::~PetdProcess() { (void)stop(); }

int PetdProcess::stop() {
  if (pid_ <= 0) return status_;
  ::kill(pid_, SIGTERM);
  const std::uint64_t deadline = now_ns() + kStopTimeoutNs;
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    status_ = -1;
  } else {
    status_ = reaped == pid_ && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());  // petd unlinks on a clean drain
  ::rmdir(dir_.c_str());
  return status_;
}

PetdProcess::Sample PetdProcess::sample() const {
  Sample out;
  if (pid_ <= 0) return out;
  const std::string proc = "/proc/" + std::to_string(pid_);

  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15 (clock ticks).
  std::ifstream stat_in(proc + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(stat_in)),
                         std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(stat.substr(close + 1));
    std::string field;
    std::uint64_t utime = 0;
    std::uint64_t stime = 0;
    for (int index = 3; fields >> field && index <= 15; ++index) {
      if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (index == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    out.cpu_s = static_cast<double>(utime + stime) /
                static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  out.threads = status_field(proc + "/status", "Threads");
  out.hwm_mb =
      static_cast<double>(status_field(proc + "/status", "VmHWM")) / 1024.0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(proc + "/task", ec)) {
    const std::string status = task.path().string() + "/status";
    out.ctxsw += status_field(status, "voluntary_ctxt_switches") +
                 status_field(status, "nonvoluntary_ctxt_switches");
  }
  return out;
}

}  // namespace pet::perf

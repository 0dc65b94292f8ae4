// Fixed-size work-stealing thread pool: the execution substrate of the
// pet::runtime trial engine (docs/runtime.md).
//
// Design:
//  * one mutex-protected deque per worker; external submissions are dealt
//    round-robin, a worker pops its own queue LIFO (cache locality) and
//    steals FIFO from its siblings when it runs dry;
//  * every task is a std::packaged_task, so exceptions thrown inside a
//    task are captured into the submitter's future instead of calling
//    std::terminate;
//  * destruction drains: ~ThreadPool() (or an earlier shutdown()) stops
//    accepting new work, runs every task already queued, then joins —
//    futures handed out by submit() therefore always become ready.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pet::runtime {

class ThreadPool {
 public:
  /// threads == 0 picks hardware_threads().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a task; the future reports completion and re-throws anything
  /// the task threw.  Must not be called during/after shutdown.
  std::future<void> submit(std::function<void()> task);

  /// Drain and join: run every task already queued, then stop the workers.
  /// Idempotent; the pool stays readable (stats()) afterwards.
  void shutdown();

  /// std::thread::hardware_concurrency clamped to at least 1.
  [[nodiscard]] static unsigned hardware_threads() noexcept;

  /// Scheduling behaviour since construction.  Everything here depends on
  /// timing and thread interleaving, so it belongs strictly to the obs
  /// *profile* domain — never to deterministic aggregates.
  struct Stats {
    std::uint64_t submitted = 0;        ///< tasks handed to submit()
    std::uint64_t stolen = 0;           ///< tasks taken from a sibling queue
    std::uint64_t max_queue_depth = 0;  ///< high-water mark of queued tasks
    std::vector<std::uint64_t> worker_tasks;  ///< tasks executed per worker
  };
  [[nodiscard]] Stats stats() const;

 private:
  // One per worker; stealing keeps contention off a single global lock.
  struct Queue {
    std::mutex mutex;
    std::deque<std::packaged_task<void()>> tasks;
  };

  void worker_loop(std::size_t me);
  bool try_pop(std::size_t me, std::packaged_task<void()>& out);

  // Relaxed stats counters (exact totals once the pool quiesces; cheap
  // enough to keep unconditionally — one uncontended RMW per event).
  struct alignas(64) WorkerStat {
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
  };

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::unique_ptr<WorkerStat>> worker_stats_;
  std::vector<std::thread> workers_;

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<std::uint64_t> queued_{0};  ///< tasks pushed, not yet popped
  std::atomic<std::uint64_t> next_{0};    ///< round-robin submission cursor
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace pet::runtime

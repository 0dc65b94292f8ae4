#include "runtime/thread_pool.hpp"

#include "common/ensure.hpp"

namespace pet::runtime {

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = threads == 0 ? hardware_threads() : threads;
  queues_.reserve(count);
  worker_stats_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<Queue>());
    worker_stats_.push_back(std::make_unique<WorkerStat>());
  }
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    // The lock orders the stop flag against the predicate re-check in
    // worker_loop, so no worker can sleep through the shutdown notify.
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  idle_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  expects(!stop_.load(std::memory_order_relaxed),
          "ThreadPool::submit: pool is shutting down");
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();

  const std::size_t slot =
      static_cast<std::size_t>(next_.fetch_add(1, std::memory_order_relaxed)) %
      queues_.size();
  {
    const std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(packaged));
  }
  {
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    const std::uint64_t depth =
        queued_.fetch_add(1, std::memory_order_relaxed) + 1;
    submitted_.fetch_add(1, std::memory_order_relaxed);
    // Monotone max under the idle lock, so no CAS loop is needed.
    if (depth > max_queue_depth_.load(std::memory_order_relaxed)) {
      max_queue_depth_.store(depth, std::memory_order_relaxed);
    }
  }
  idle_cv_.notify_one();
  return future;
}

bool ThreadPool::try_pop(std::size_t me, std::packaged_task<void()>& out) {
  // Own queue first, newest task (LIFO keeps the working set warm) ...
  {
    Queue& mine = *queues_[me];
    const std::lock_guard<std::mutex> lock(mine.mutex);
    if (!mine.tasks.empty()) {
      out = std::move(mine.tasks.back());
      mine.tasks.pop_back();
      return true;
    }
  }
  // ... then steal the oldest task from a sibling (FIFO minimizes the
  // chance of fighting the victim over its hot end).
  for (std::size_t step = 1; step < queues_.size(); ++step) {
    Queue& victim = *queues_[(me + step) % queues_.size()];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      worker_stats_[me]->stolen.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  out.worker_tasks.reserve(worker_stats_.size());
  for (const auto& w : worker_stats_) {
    out.worker_tasks.push_back(w->executed.load(std::memory_order_relaxed));
    out.stolen += w->stolen.load(std::memory_order_relaxed);
  }
  return out;
}

void ThreadPool::worker_loop(std::size_t me) {
  for (;;) {
    std::packaged_task<void()> task;
    if (try_pop(me, task)) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      worker_stats_[me]->executed.fetch_add(1, std::memory_order_relaxed);
      task();  // packaged_task captures exceptions into the future
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mutex_);
    idle_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_relaxed) > 0;
    });
    // Drain semantics: exit only once shutdown began AND nothing is queued.
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_relaxed) == 0) {
      return;
    }
  }
}

}  // namespace pet::runtime

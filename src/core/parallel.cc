#include "core/parallel.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace krcore {

namespace {
// Identifies the pool (and worker slot) the current thread belongs to, so
// Submit from inside a task lands on the submitting worker's own deque.
thread_local TaskPool* tls_pool = nullptr;
thread_local uint32_t tls_worker = 0;

/// Holds TaskPool::ForThisThread's pool and the process that built it.
struct ThreadPoolHolder {
  std::unique_ptr<TaskPool> pool;
  pid_t owner = 0;

  /// Leaks the pool unless this process built it: after a fork its workers
  /// do not exist, so joining them would hang.
  void DropIfForeign(pid_t pid) {
    if (owner != pid) (void)pool.release();
  }
  ~ThreadPoolHolder() { DropIfForeign(getpid()); }
};
thread_local ThreadPoolHolder tls_holder;
}  // namespace

uint32_t ResolveThreadCount(uint32_t requested, uint32_t hardware) {
  if (requested != 0) return requested;
  return hardware == 0 ? 1 : hardware;
}

uint32_t ParallelOptions::Resolve() const {
  return ResolveThreadCount(num_threads, std::thread::hardware_concurrency());
}

TaskPool::TaskPool(uint32_t num_threads)
    : queues_(std::max(1u, num_threads)) {
  workers_.reserve(queues_.size());
  for (uint32_t i = 0; i < queues_.size(); ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    KRCORE_DCHECK(queued_ + running_ == 0);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void TaskPool::Submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t slot;
    if (tls_pool == this) {
      slot = tls_worker;
      queues_[slot].push_front(std::move(task));
    } else {
      slot = static_cast<uint32_t>(next_queue_++ % queues_.size());
      queues_[slot].push_back(std::move(task));
    }
    queued_.fetch_add(1, std::memory_order_relaxed);
    ++submitted_;
  }
  work_cv_.notify_one();
}

bool TaskPool::PopTask(uint32_t index, Task* task) {
  std::deque<Task>* from = &queues_[index];
  for (size_t off = 1; from->empty() && off < queues_.size(); ++off) {
    from = &queues_[(index + off) % queues_.size()];
  }
  if (from->empty()) return false;
  if (from == &queues_[index]) {
    *task = std::move(from->front());
    from->pop_front();
  } else {
    *task = std::move(from->back());
    from->pop_back();
    ++stolen_;
  }
  // Running first, so HasFreeWorker never misses the task in both counts.
  running_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void TaskPool::WorkerLoop(uint32_t index) {
  tls_pool = this;
  tls_worker = index;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Task task;
    if (PopTask(index, &task)) {
      lock.unlock();
      // Not a fault: a firing stall yields the worker's timeslice before it
      // runs the task, perturbing the schedule so the chaos/TSan runs
      // explore orderings (stolen tasks, reversed completion) that an idle
      // machine would rarely produce. Determinism of results under any
      // schedule is exactly what the equivalence tests lock down.
      if (Failpoints::ShouldFail("parallel/worker_stall")) {
        std::this_thread::yield();
      }
      task();
      task = nullptr;  // release captures before re-locking
      lock.lock();
      running_.fetch_sub(1, std::memory_order_relaxed);
      if (running_ + queued_ == 0) done_cv_.notify_all();
      continue;
    }
    if (stop_) break;
    work_cv_.wait(lock);
  }
  tls_pool = nullptr;
}

void TaskPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return running_ + queued_ == 0; });
}

uint64_t TaskPool::tasks_spawned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

uint64_t TaskPool::tasks_stolen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stolen_;
}

TaskPool& TaskPool::ForThisThread(uint32_t num_threads) {
  ThreadPoolHolder& holder = tls_holder;
  const pid_t pid = getpid();
  holder.DropIfForeign(pid);
  if (!holder.pool ||
      holder.pool->num_threads() != std::max(1u, num_threads)) {
    holder.pool = std::make_unique<TaskPool>(num_threads);
    holder.owner = pid;
  }
  return *holder.pool;
}

void ParallelFor(uint32_t num_threads, size_t count,
                 const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (num_threads <= 1 || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fn(i);
    }
  };
  size_t spawned =
      std::min<size_t>(num_threads, count) - 1;  // this thread works too
  std::vector<std::thread> threads;
  threads.reserve(spawned);
  for (size_t t = 0; t < spawned; ++t) threads.emplace_back(worker);
  worker();
  for (auto& t : threads) t.join();
}

}  // namespace krcore

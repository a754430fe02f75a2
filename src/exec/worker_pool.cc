#include "exec/worker_pool.h"

namespace hique::exec {

WorkerPool::WorkerPool(uint32_t num_workers) {
  threads_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back(&WorkerPool::WorkerLoop, this, i);
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::RunTasks(Job* job, uint32_t slot) {
  const uint32_t n = job->num_tasks;
  for (;;) {
    // Guided self-scheduling over the per-job claim index: claim
    // ~1/(4*executors) of the (estimated) remaining tasks per atomic, at
    // least one. Early claims are coarse so a long task queue costs few
    // atomics; the final stretch degrades to single-task claims so idle
    // executors can still share a skewed tail morsel by morsel.
    uint32_t claimed = job->next.load(std::memory_order_relaxed);
    uint32_t rem = claimed < n ? n - claimed : 1;
    uint32_t c = rem / (4 * job->executors);
    if (c < 1) c = 1;
    uint32_t t0 = job->next.fetch_add(c, std::memory_order_relaxed);
    if (t0 >= n) return;
    uint32_t t1 = t0 + c < n ? t0 + c : n;
    for (uint32_t t = t0; t < t1; ++t) {
      if (!job->cancelled.load(std::memory_order_acquire)) {
        if ((*job->fn)(slot, t) != 0) {
          job->cancelled.store(true, std::memory_order_release);
        }
      }
    }
    if (job->done.fetch_add(t1 - t0, std::memory_order_acq_rel) + (t1 - t0) ==
        n) {
      std::lock_guard<std::mutex> lk(job->mu);
      job->complete = true;
      job->cv.notify_all();
    }
  }
}

void WorkerPool::WorkerLoop(uint32_t slot) {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      for (;;) {
        cv_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
        if (stop_) return;
        // Drop drained jobs (every task claimed) lazily while we already
        // hold the mutex to pick work: the completion path no longer pays
        // an O(jobs) deque scan per barrier, which used to serialize
        // sessions on the pool mutex.
        for (auto it = jobs_.begin(); it != jobs_.end();) {
          if ((*it)->next.load(std::memory_order_relaxed) >=
              (*it)->num_tasks) {
            it = jobs_.erase(it);
          } else {
            ++it;
          }
        }
        if (!jobs_.empty()) break;
      }
      // Claim tasks from the oldest undrained job (the deque preserves
      // submission order).
      job = jobs_.front();
    }
    RunTasks(job.get(), slot);
  }
}

bool WorkerPool::ParallelFor(uint32_t num_tasks, const TaskFn& fn) {
  if (num_tasks == 0) return true;
  if (threads_.empty()) {
    for (uint32_t t = 0; t < num_tasks; ++t) {
      if (fn(0, t) != 0) return false;
    }
    return true;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->num_tasks = num_tasks;
  job->executors = num_executors();
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back(job);
  }
  cv_.notify_all();
  // The caller claims tasks too, as the last executor slot. The drained
  // job is pruned from the deque lazily by the next worker that passes
  // through the selection path (see WorkerLoop).
  RunTasks(job.get(), static_cast<uint32_t>(threads_.size()));
  std::unique_lock<std::mutex> lk(job->mu);
  job->cv.wait(lk, [&] { return job->complete; });
  return !job->cancelled.load(std::memory_order_acquire);
}

}  // namespace hique::exec

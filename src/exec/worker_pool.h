#ifndef HIQUE_EXEC_WORKER_POOL_H_
#define HIQUE_EXEC_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hique::exec {

/// A shared pool of worker threads executing partition-parallel query
/// stages. One pool serves every concurrent execution of an engine:
/// ParallelFor may be called from many client threads at once; each call
/// posts a job whose tasks are claimed dynamically (one atomic fetch_add
/// per task) by the pool workers plus the calling thread, and the call
/// returns only when every task has finished — the barrier the generated
/// code's hq_parallel_for contract requires.
///
/// The executor slot passed to `fn` identifies which of the
/// `num_executors()` threads is running the task; callers index
/// per-execution worker state (arenas, counter blocks) by it. Task
/// *decomposition* is fixed by the caller, so query results never depend
/// on how tasks land on threads.
class WorkerPool {
 public:
  /// fn(executor_slot, task_index) -> 0 on success. A nonzero return
  /// cancels the job: tasks not yet started are skipped (they still count
  /// toward completion so the barrier releases promptly).
  using TaskFn = std::function<int32_t(uint32_t executor, uint32_t task)>;

  /// Spawns `num_workers` threads (may be 0: ParallelFor then runs inline).
  explicit WorkerPool(uint32_t num_workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Pool threads plus the calling thread (the caller always participates,
  /// claiming tasks like any worker while its job is pending).
  uint32_t num_executors() const {
    return static_cast<uint32_t>(threads_.size()) + 1;
  }

  /// Runs all tasks and blocks until they complete. Safe to call from
  /// multiple threads concurrently; jobs share the worker threads.
  /// Returns false when the job was cancelled (a task returned nonzero),
  /// so callers never mistake a partially-run job for a completed one.
  ///
  /// When several jobs are pending, idle workers claim tasks from the
  /// oldest undrained job first. The calling thread always works on its
  /// own job, so every job keeps at least one executor and can never
  /// starve.
  bool ParallelFor(uint32_t num_tasks, const TaskFn& fn);

 private:
  struct Job {
    const TaskFn* fn = nullptr;
    uint32_t num_tasks = 0;
    uint32_t executors = 1;  // pool width, sizes the guided claim chunks
    // Chunked morsel claim index: executors grab a decreasing-size block
    // of consecutive tasks per fetch_add (guided self-scheduling) instead
    // of one task per atomic. Decomposition is still fixed by the caller —
    // chunking only changes which thread runs which tasks, never results.
    std::atomic<uint32_t> next{0};       // next task to claim
    std::atomic<uint32_t> done{0};       // finished (or skipped) tasks
    std::atomic<bool> cancelled{false};  // a task returned nonzero
    std::mutex mu;
    std::condition_variable cv;
    bool complete = false;
  };

  void WorkerLoop(uint32_t slot);
  static void RunTasks(Job* job, uint32_t slot);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

}  // namespace hique::exec

#endif  // HIQUE_EXEC_WORKER_POOL_H_

// Bounded work-stealing thread pool for host-parallel experiment sweeps.
//
// Each worker owns a deque: it pushes/pops its own work LIFO (cache-warm)
// and steals FIFO from a victim when empty, so one long sweep point left on
// a queue migrates to an idle worker instead of serializing the tail.
// Simulator runs are coarse (milliseconds to seconds each), so deques are
// mutex-guarded — contention is negligible at this granularity and the
// code stays obviously correct.
//
// Determinism contract: the pool schedules, it never reorders results —
// parallel_for(n, fn) indexes every call, and callers write results into
// slot i, so the output order is the input order no matter which worker
// ran what when. Each fn(i) constructs its own Machine; nothing simulated
// is shared across workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace armbar::runner {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(0..n-1), blocking until all calls finished. The calling thread
  /// participates (steals work) instead of idling, so a pool of size J uses
  /// J+1 threads of compute but never oversubscribes a J-sized --jobs
  /// budget by more than the caller itself. Exceptions from fn propagate
  /// (the first one thrown; remaining tasks still complete). If the pool is
  /// shut down mid-call, queued-but-unstarted tasks are cancelled and the
  /// call throws — a task exception always wins over the cancellation
  /// error, and the waiter can never hang on never-to-run tasks.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Stop taking new tasks, join every worker, then cancel any tasks still
  /// queued (waking their parallel_for waiters with an error instead of
  /// leaving them blocked forever). Idempotent; the destructor calls it.
  void shutdown();

  /// Default worker count: every hardware thread.
  static std::size_t hardware_jobs();

 private:
  struct Job;

  struct Task {
    Job* job;
    std::size_t index;
  };

  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  bool pop_local(std::size_t worker, Task* out);
  bool steal(std::size_t thief, Task* out);
  bool is_shutdown();
  static void run_task(const Task& t);
  static void cancel_task(const Task& t);
  /// Count one task of `job` as finished (run or cancelled); the last one
  /// wakes the parallel_for waiter.
  static void finish_task(Job& job);
  void worker_loop(std::size_t id);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool shutdown_ = false;
  std::size_t pending_ = 0;  // tasks queued but not yet taken (wake hint)
};

}  // namespace armbar::runner

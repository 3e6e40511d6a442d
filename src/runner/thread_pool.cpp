#include "runner/thread_pool.hpp"

#include <exception>
#include <stdexcept>

namespace armbar::runner {

struct ThreadPool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t total = 0;
  std::mutex err_mu;
  std::exception_ptr err;     // first *task* exception (guarded by err_mu)
  bool cancelled = false;     // some tasks never ran (guarded by err_mu)
  std::mutex done_mu;
  std::size_t done = 0;       // tasks run or cancelled (guarded by done_mu)
  std::condition_variable done_cv;
};

void ThreadPool::finish_task(Job& job) {
  // The count moves under done_mu: the Job lives on the waiter's stack, and
  // the waiter returns (destroying it) as soon as it sees the final count.
  // A count bumped outside the lock could be seen while its finisher,
  // preempted before locking, still had to lock and notify through the Job.
  std::lock_guard<std::mutex> lock(job.done_mu);
  if (++job.done == job.total) job.done_cv.notify_all();
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  // With every worker gone, anything still queued will never run. A waiter
  // blocked in parallel_for counts completions — cancel the orphans so it
  // wakes (with an error) instead of hanging forever. Queue locks make the
  // handoff race-free: each task is either run by a thread that popped it
  // or cancelled here, never both.
  for (auto& qp : queues_) {
    std::deque<Task> orphans;
    {
      std::lock_guard<std::mutex> lock(qp->mu);
      orphans.swap(qp->tasks);
    }
    for (const Task& t : orphans) cancel_task(t);
  }
}

bool ThreadPool::is_shutdown() {
  std::lock_guard<std::mutex> lock(wake_mu_);
  return shutdown_;
}

std::size_t ThreadPool::hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool ThreadPool::pop_local(std::size_t worker, Task* out) {
  WorkerQueue& q = *queues_[worker];
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  *out = q.tasks.back();  // LIFO on the owner's side
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::steal(std::size_t thief, Task* out) {
  const std::size_t n = queues_.size();
  for (std::size_t d = 1; d <= n; ++d) {
    WorkerQueue& q = *queues_[(thief + d) % n];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      *out = q.tasks.front();  // FIFO from the victim's cold end
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(const Task& t) {
  Job& job = *t.job;
  try {
    (*job.fn)(t.index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(job.err_mu);
    if (!job.err) job.err = std::current_exception();
  }
  finish_task(job);
}

void ThreadPool::cancel_task(const Task& t) {
  Job& job = *t.job;
  {
    std::lock_guard<std::mutex> lock(job.err_mu);
    job.cancelled = true;
  }
  finish_task(job);
}

void ThreadPool::worker_loop(std::size_t id) {
  for (;;) {
    // Once shutdown begins nobody takes new tasks; leftovers are cancelled
    // by shutdown() after the join.
    if (is_shutdown()) return;
    Task t{};
    if (pop_local(id, &t) || steal(id, &t)) {
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        if (pending_ > 0) --pending_;
      }
      run_task(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] { return shutdown_ || pending_ > 0; });
    if (shutdown_) return;
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (is_shutdown())
    throw std::runtime_error("parallel_for on a shut-down ThreadPool");
  Job job;
  job.fn = &fn;
  job.total = n;

  // Round-robin the tasks across worker deques so stealing starts from an
  // already-balanced distribution.
  for (std::size_t i = 0; i < n; ++i) {
    WorkerQueue& q = *queues_[i % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.push_back({&job, i});
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    pending_ += n;
  }
  wake_cv_.notify_all();

  // The caller works too: steal from any queue until nothing is left, then
  // wait for in-flight tasks to drain. Deliberately NOT gated on shutdown:
  // the caller draining its own job is what guarantees the wait terminates
  // even when shutdown raced with the pushes above and the cancel sweep ran
  // before they landed.
  Task t{};
  while (steal(0, &t)) {
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      if (pending_ > 0) --pending_;
    }
    run_task(t);
  }
  {
    std::unique_lock<std::mutex> lock(job.done_mu);
    job.done_cv.wait(lock, [&] { return job.done == job.total; });
  }
  // A real task exception outranks the cancellation error: if a task threw
  // while the pool was shutting down, that failure must reach the waiter.
  std::exception_ptr err;
  bool cancelled = false;
  {
    std::lock_guard<std::mutex> lock(job.err_mu);
    err = job.err;
    cancelled = job.cancelled;
  }
  if (err) std::rethrow_exception(err);
  if (cancelled)
    throw std::runtime_error("ThreadPool shut down with queued tasks");
}

}  // namespace armbar::runner

// Thread pool for host-parallel experiment sweeps, which run a few coarse,
// independent points one parallel_for at a time. parallel_for(n, fn)
// publishes the index range [0, n); the workers take indices from its top
// and the calling thread from its bottom until it is empty, so costly
// points at either end start early. With no workers the caller runs
// 0..n-1 in order: the serial path is a pool of size 0.
//
// Determinism contract: the pool schedules, it never reorders results —
// callers write the result of fn(i) into slot i, so the output order is
// the input order whichever thread ran what. Each fn(i) constructs its own
// Machine; nothing simulated is shared across threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace armbar::runner {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 is legal (the caller does all the work).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;  // workers hold `this`
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(0..n-1) on the workers and the calling thread, blocking until
  /// every call finished; n must be below 2^32. The caller takes indices in
  /// increasing order, each worker in decreasing order. If fn throws, the
  /// other indices still run and the first exception is rethrown here. One
  /// call at a time: a parallel_for from inside fn throws std::logic_error.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Default --jobs: every hardware thread.
  static std::size_t hardware_jobs();

 private:
  struct Range { std::uint32_t lo, hi; };  // indices not yet taken
  static_assert(std::atomic<Range>::is_always_lock_free);

  void worker_loop();
  /// Take and run indices from the top (workers) or bottom (caller).
  void drain(const std::function<void(std::size_t)>& fn, bool from_top);

  std::atomic<Range> range_{Range{0, 0}};
  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers: a new call, or stop
  std::condition_variable idle_cv_;  // caller: busy_ fell to 0
  // Guarded by mu_:
  const std::function<void(std::size_t)>* fn_ = nullptr;  // open call
  std::uint64_t calls_ = 0;  // calls started
  std::size_t busy_ = 0;     // workers inside the call in flight
  std::exception_ptr err_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: they use every member above
};

}  // namespace armbar::runner

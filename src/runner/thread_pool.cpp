#include "runner/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace armbar::runner {

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  wake_cv_.notify_all();
  lock.unlock();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::hardware_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::drain(const std::function<void(std::size_t)>& fn,
                       bool from_top) {
  for (Range r = range_.load(); r.lo < r.hi;) {
    const std::uint32_t i = from_top ? r.hi - 1 : r.lo;
    const Range rest = from_top ? Range{r.lo, i} : Range{i + 1, r.hi};
    if (!range_.compare_exchange_weak(r, rest)) continue;  // r reloaded
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!err_) err_ = std::current_exception();
    }
    r = range_.load();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::uint64_t seen = 0;;) {
    wake_cv_.wait(lock, [&] { return stop_ || calls_ != seen; });
    if (stop_) return;
    seen = calls_;
    // Woken after the caller closed its call: fn may be gone, and the range
    // may soon hold the next call's indices.
    if (fn_ == nullptr) continue;
    ++busy_;
    const auto& fn = *fn_;
    lock.unlock();
    drain(fn, /*from_top=*/true);
    lock.lock();
    if (--busy_ == 0) idle_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n > UINT32_MAX)
    throw std::length_error("parallel_for: n must be below 2^32");
  std::unique_lock<std::mutex> lock(mu_);
  if (fn_ != nullptr || busy_ != 0)
    throw std::logic_error("parallel_for: a call is already in flight");
  fn_ = &fn;
  ++calls_;
  range_.store(Range{0, static_cast<std::uint32_t>(n)});
  lock.unlock();
  wake_cv_.notify_all();
  drain(fn, /*from_top=*/false);
  lock.lock();
  fn_ = nullptr;  // the range is empty: close the call, wait for those in it
  idle_cv_.wait(lock, [this] { return busy_ == 0; });
  if (err_) std::rethrow_exception(std::exchange(err_, nullptr));
}

}  // namespace armbar::runner

// Thread pool: results land in index order, exceptions propagate, nothing
// is lost or run twice, the caller takes indices bottom-up and the workers
// top-down, and a pool of size 0 is the serial path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/thread_pool.hpp"

namespace armbar::runner {
namespace {

TEST(ThreadPool, HardwareJobsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_jobs(), 1u);
}

TEST(ThreadPool, ZeroWorkersRunEveryIndexInOrderOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(50, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> want(50);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(ThreadPool, ResultsInIndexOrder) {
  ThreadPool pool(4);
  const std::size_t n = 500;
  std::vector<std::size_t> out(n, 0);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = i * 2 + 1; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * 2 + 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> counts(n);
  pool.parallel_for(n, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(100, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 500u);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, FirstExceptionPropagates) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 17) throw std::runtime_error("boom at 17");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // Remaining tasks still complete (the pool drains before rethrowing).
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPool, EachThreadTakesItsIndicesMonotonically) {
  // Whatever the interleaving, the caller only ever takes the range's
  // bottom and a worker its top, so the caller's indices increase and each
  // worker's decrease.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    std::mutex mu;
    std::map<std::thread::id, std::vector<std::size_t>> taken;
    const std::size_t n = 64;
    pool.parallel_for(n, [&](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        taken[std::this_thread::get_id()].push_back(i);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
    std::size_t total = 0;
    for (const auto& [id, seq] : taken) {
      total += seq.size();
      for (std::size_t k = 1; k < seq.size(); ++k) {
        if (id == caller)
          EXPECT_LT(seq[k - 1], seq[k]) << "caller, round " << round;
        else
          EXPECT_GT(seq[k - 1], seq[k]) << "worker, round " << round;
      }
    }
    EXPECT_EQ(total, n);
  }
}

TEST(ThreadPool, BackToBackSmallCallsNeverHangOrRunAnIndexTwice) {
  // A worker that wakes after its call has ended must neither run that
  // call's fn nor take the next call's indices for it. Calls alternate
  // between two live functions, each writing only the slots of the call it
  // was passed to, so an index run by the wrong function or run twice
  // shows as a count != 1.
  ThreadPool pool(3);
  const std::size_t calls = 10000;
  std::vector<std::atomic<int>> hits(calls * 3);
  std::size_t call_of[2] = {0, 0};
  std::function<void(std::size_t)> fns[2];
  for (std::size_t k = 0; k < 2; ++k)
    fns[k] = [&, k](std::size_t i) { hits[call_of[k] * 3 + i].fetch_add(1); };
  for (std::size_t c = 0; c < calls; ++c) {
    call_of[c % 2] = c;
    pool.parallel_for(1 + c % 3, fns[c % 2]);
  }
  for (std::size_t c = 0; c < calls; ++c)
    for (std::size_t i = 0; i < 3; ++i)
      ASSERT_EQ(hits[c * 3 + i].load(), i < 1 + c % 3 ? 1 : 0)
          << "call " << c << " index " << i;
}

TEST(ThreadPool, NestedOrOversizedCallsThrow) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(std::size_t{1} << 32, [](std::size_t) {}),
               std::length_error);
  const auto nested = [&](std::size_t) {
    pool.parallel_for(1, [](std::size_t) {});
  };
  EXPECT_THROW(pool.parallel_for(4, nested), std::logic_error);
  // The pool still works afterwards.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, LargeFanOutSumsCorrectly) {
  ThreadPool pool(4);
  const std::size_t n = 2048;
  std::vector<std::uint64_t> out(n);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = i; });
  const std::uint64_t sum = std::accumulate(out.begin(), out.end(), 0ull);
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

}  // namespace
}  // namespace armbar::runner

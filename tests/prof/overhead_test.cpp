// Overhead bound (SLOW tier): a profiled simulator run must cost no more
// than a small multiple of an unprofiled one. The bound is deliberately
// loose — CI machines are noisy — but a per-event syscall or a lock on the
// hot path would blow through it immediately.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "prof/prof.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"

namespace armbar::prof {
namespace {

using namespace armbar::sim;

Program producer(std::uint32_t k) {
  Asm a;
  a.movi(X0, 0x1000).movi(X2, 0x2000).movi(X5, k).movi(X3, 0);
  a.label("loop");
  a.addi(X3, X3, 1);
  a.str(X3, X0, 0);
  a.dmb_st();
  a.str(X3, X2, 0);
  a.cmp(X3, X5);
  a.bne("loop");
  a.halt();
  return a.take("overhead-producer");
}

Program consumer(std::uint32_t k) {
  Asm a;
  a.movi(X0, 0x1000).movi(X2, 0x2000).movi(X5, k);
  a.label("wait");
  a.ldr(X3, X2, 0);
  a.cmp(X3, X5);
  a.bne("wait");
  a.dmb_ld();
  a.ldr(X10, X0, 0);
  a.halt();
  return a.take("overhead-consumer");
}

/// One timed MP run on the kirin960 preset; returns host ns.
std::uint64_t timed_run(const Program& prod, const Program& cons) {
  Machine m(kirin960(), 8u << 20);
  m.load_program(0, prod);
  m.load_program(m.num_cores() - 1, cons);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult res = m.run(RunConfig{});
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_TRUE(res.completed);
  return static_cast<std::uint64_t>(ns);
}

std::uint64_t median_of(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

TEST(ProfOverhead, ProfiledRunWithinBudget) {
  constexpr std::uint32_t kRounds = 2000;
  constexpr int kReps = 5;
  const Program prod = producer(kRounds);
  const Program cons = consumer(kRounds);

  set_enabled(false);
  reset();
  // Warm-up (page faults, branch predictors) before either series.
  timed_run(prod, cons);

  std::vector<std::uint64_t> off, on;
  for (int i = 0; i < kReps; ++i) off.push_back(timed_run(prod, cons));
  {
    Session s;
    for (int i = 0; i < kReps; ++i) on.push_back(timed_run(prod, cons));
  }
  const Snapshot snap = snapshot();
  reset();

  EXPECT_GE(snap.counter(Counter::kSimRuns), static_cast<std::uint64_t>(kReps));
  EXPECT_GT(snap.counter(Counter::kSimInstructions), 0u);

  const double base = static_cast<double>(median_of(off));
  const double prof = static_cast<double>(median_of(on));
  // <= 6x plus 2ms absolute slack: generous against host noise, fatal for
  // a syscall-per-scope or contended-lock implementation.
  EXPECT_LE(prof, base * 6.0 + 2e6)
      << "profiled median " << prof / 1e6 << " ms vs unprofiled "
      << base / 1e6 << " ms";
}

}  // namespace
}  // namespace armbar::prof

// Profiler core: disabled-by-default no-record, scope nesting and
// reentrancy accounting, per-thread sum determinism, reset semantics.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "prof/prof.hpp"

namespace armbar::prof {
namespace {

/// Spin until the steady clock has advanced by `us` — guarantees a scope
/// accumulates measurably nonzero ticks on any clocksource.
void busy_us(std::int64_t us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

TEST_F(ProfTest, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(enabled());
  {
    ARMBAR_PROF_SCOPE(kSimRun);
    ARMBAR_PROF_COUNT(kSimInstructions, 42);
    busy_us(50);
  }
  const Snapshot snap = snapshot();
  EXPECT_FALSE(snap.has_data());
  EXPECT_EQ(snap.counter(Counter::kSimInstructions), 0u);
  EXPECT_EQ(snap.phase(Phase::kSimRun).count, 0u);
}

TEST_F(ProfTest, NestedScopesSelfWithinTotal) {
  {
    Session s;
    ASSERT_TRUE(s.owned());
    ARMBAR_PROF_SCOPE(kSimRun);
    busy_us(200);
    {
      ARMBAR_PROF_SCOPE(kSimCoherence);
      busy_us(200);
    }
    busy_us(100);
  }
  const Snapshot snap = snapshot();
  ASSERT_TRUE(snap.has_data());
  const PhaseStats& run = snap.phase(Phase::kSimRun);
  const PhaseStats& coherence = snap.phase(Phase::kSimCoherence);
  EXPECT_EQ(run.count, 1u);
  EXPECT_EQ(coherence.count, 1u);
  EXPECT_GT(run.total_ns, 0u);
  EXPECT_GE(run.total_ns, coherence.total_ns);  // child nested inside parent
  // The child accounts for its slice: parent self < parent total.
  EXPECT_LT(run.self_ns, run.total_ns);
  // Nothing is nested in the child, so all of its time is its own.
  EXPECT_EQ(coherence.self_ns, coherence.total_ns);

  // The table records the nesting: the parent's self time and the child's
  // total partition the parent's total (to within one ns of rounding, as
  // ticks convert to ns per phase).
  const auto parts = static_cast<std::int64_t>(run.self_ns + coherence.total_ns);
  EXPECT_LE(std::llabs(parts - static_cast<std::int64_t>(run.total_ns)), 1);
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (i != static_cast<std::size_t>(Phase::kSimRun) &&
        i != static_cast<std::size_t>(Phase::kSimCoherence)) {
      EXPECT_EQ(snap.phases[i].count, 0u) << phase_name(static_cast<Phase>(i));
    }
  }
}

TEST_F(ProfTest, ReentrantScopesBillTopmostOnce) {
  {
    Session s;
    ARMBAR_PROF_SCOPE(kSimRun);
    busy_us(100);
    {
      // Re-entering the same phase must not double-bill the flat total.
      ARMBAR_PROF_SCOPE(kSimRun);
      busy_us(100);
    }
  }
  const Snapshot snap = snapshot();
  const PhaseStats& run = snap.phase(Phase::kSimRun);
  EXPECT_EQ(run.count, 2u);  // both entries counted...
  EXPECT_GT(run.total_ns, 0u);
  // ...but total_ns is the topmost occurrence only. The inner and outer
  // self times partition the outer scope, so they sum to exactly its
  // time; billing the inner scope's total again would push total_ns above
  // them.
  EXPECT_EQ(run.self_ns, run.total_ns);
}

TEST_F(ProfTest, ScopesPastTheStackDepthAreNotRecorded) {
  {
    Session s;
    const auto nest = [](const auto& self, int n) -> void {
      if (n == 0) return busy_us(20);
      ARMBAR_PROF_SCOPE(kSimRun);
      self(self, n - 1);
    };
    nest(nest, 20);
  }
  // The 16 outer scopes are billed and the 4 innermost are not, which
  // leaves the partition of the outermost scope exact.
  const Snapshot snap = snapshot();
  const PhaseStats& run = snap.phase(Phase::kSimRun);
  EXPECT_EQ(run.count, 16u);
  EXPECT_GT(run.total_ns, 0u);
  EXPECT_EQ(run.self_ns, run.total_ns);
}

TEST_F(ProfTest, PerThreadMergeIsDeterministic) {
  {
    Session s;
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
      workers.emplace_back([] {
        ARMBAR_PROF_SCOPE(kSimRun);
        for (int i = 0; i < 1000; ++i) ARMBAR_PROF_COUNT(kSimInstructions, 1);
        busy_us(50);
      });
    for (auto& w : workers) w.join();
  }
  const Snapshot a = snapshot();
  EXPECT_EQ(a.counter(Counter::kSimInstructions), 4000u);
  EXPECT_EQ(a.phase(Phase::kSimRun).count, 4u);
  EXPECT_EQ(a.threads, 4u);  // main thread recorded nothing

  // Summing retired per-thread tables is deterministic: a second snapshot
  // is identical except for the wall clock.
  const Snapshot b = snapshot();
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.counters, b.counters);
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_EQ(a.phases[i].count, b.phases[i].count);
    EXPECT_EQ(a.phases[i].total_ns, b.phases[i].total_ns);
    EXPECT_EQ(a.phases[i].self_ns, b.phases[i].self_ns);
  }
}

TEST_F(ProfTest, ResetClearsEverything) {
  {
    Session s;
    ARMBAR_PROF_SCOPE(kSimRun);
    ARMBAR_PROF_COUNT(kSimCycles, 7);
    busy_us(50);
  }
  ASSERT_TRUE(snapshot().has_data());
  reset();
  const Snapshot snap = snapshot();
  EXPECT_FALSE(snap.has_data());
  EXPECT_EQ(snap.counter(Counter::kSimCycles), 0u);
  EXPECT_EQ(snap.threads, 0u);
  for (const PhaseStats& p : snap.phases) {
    EXPECT_EQ(p.count, 0u);
    EXPECT_EQ(p.total_ns, 0u);
    EXPECT_EQ(p.self_ns, 0u);
  }
}

TEST_F(ProfTest, ResetMidScopeDropsTheSample) {
  {
    Session s;
    ARMBAR_PROF_SCOPE(kSimRun);
    busy_us(50);
    reset();  // the open sim.run frame belongs to the discarded epoch
    {
      ARMBAR_PROF_SCOPE(kSimVerify);
      busy_us(50);
    }
  }
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.phase(Phase::kSimRun).count, 0u);
  EXPECT_EQ(snap.phase(Phase::kSimRun).total_ns, 0u);
  EXPECT_EQ(snap.phase(Phase::kSimVerify).count, 1u);
  EXPECT_GT(snap.phase(Phase::kSimVerify).total_ns, 0u);
  EXPECT_EQ(snap.threads, 1u);
}

TEST_F(ProfTest, SessionDoesNotStealOuterOwnership) {
  set_enabled(true);
  {
    Session inner;  // someone else already enabled: not owned
    EXPECT_FALSE(inner.owned());
  }
  EXPECT_TRUE(enabled());  // inner's dtor must not disable
  set_enabled(false);
}

}  // namespace
}  // namespace armbar::prof

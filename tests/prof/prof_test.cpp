// Profiler core: disabled-by-default no-record, scope nesting and
// reentrancy accounting, per-thread merge determinism, reset semantics.
#include <gtest/gtest.h>

#include <chrono>
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
      ARMBAR_PROF_SCOPE(kSimSchedule);
      busy_us(200);
    }
    busy_us(100);
  }
  const Snapshot snap = snapshot();
  ASSERT_TRUE(snap.has_data());
  const PhaseStats& run = snap.phase(Phase::kSimRun);
  const PhaseStats& schedule = snap.phase(Phase::kSimSchedule);
  EXPECT_EQ(run.count, 1u);
  EXPECT_EQ(schedule.count, 1u);
  EXPECT_GT(run.total_ns, 0u);
  EXPECT_GE(run.total_ns, schedule.total_ns);  // child nested inside parent
  EXPECT_LE(run.self_ns, run.total_ns);
  // The child accounts for its slice: parent self < parent total.
  EXPECT_LT(run.self_ns, run.total_ns);

  // Calltree shape: sim.schedule's node hangs off sim.run's node.
  ASSERT_EQ(snap.nodes.size(), 2u);
  EXPECT_EQ(snap.nodes[0].phase, Phase::kSimRun);
  EXPECT_EQ(snap.nodes[0].parent, -1);
  EXPECT_EQ(snap.nodes[1].phase, Phase::kSimSchedule);
  EXPECT_EQ(snap.nodes[1].parent, 0);
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
  // ...but total_ns is the topmost occurrence only: strictly less than the
  // naive sum (outer + inner > outer since inner is inside outer).
  ASSERT_EQ(snap.nodes.size(), 2u);
  EXPECT_EQ(run.total_ns, snap.nodes[0].total_ns);
  EXPECT_LT(run.total_ns, snap.nodes[0].total_ns + snap.nodes[1].total_ns);
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

  // Merging retired per-thread trees is deterministic: a second snapshot is
  // identical except for the wall clock.
  const Snapshot b = snapshot();
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].phase, b.nodes[i].phase);
    EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent);
    EXPECT_EQ(a.nodes[i].count, b.nodes[i].count);
    EXPECT_EQ(a.nodes[i].total_ns, b.nodes[i].total_ns);
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
  EXPECT_TRUE(snap.nodes.empty());
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

// Unit tests for the attention scheduler: the lazy min-heap and the
// 64-lane wheel beside it.
#include <gtest/gtest.h>

#include "sim/sched.hpp"

namespace armbar::sim {
namespace {

/// Each core's wheel bit is set exactly when its slot lies in the window,
/// in the lane of that slot and nowhere else, and the occupancy mask names
/// exactly the non-empty lanes.
::testing::AssertionResult wheel_is_exact(const AttentionQueue& q,
                                          std::uint32_t num_cores) {
  for (std::uint32_t i = 0; i < AttentionQueue::kLanes; ++i) {
    if (((q.occupied() >> i & 1) != 0) != (q.lane(i) != 0))
      return ::testing::AssertionFailure()
             << "lane " << i << " mask " << q.lane(i) << ", occupancy "
             << q.occupied();
    for (std::uint32_t c = 0; c < num_cores; ++c) {
      const bool filed = q.in_window(q.at(c)) && q.at(c) % 64 == i;
      if (((q.lane(i) >> c & 1) != 0) != filed)
        return ::testing::AssertionFailure()
               << "core " << c << " slot " << q.at(c) << ", window from "
               << q.window_lo() << ", lane " << i << " mask " << q.lane(i);
    }
  }
  return ::testing::AssertionSuccess();
}

/// The wheel's members over all lanes (bit c = core c).
std::uint64_t wheel(const AttentionQueue& q) {
  std::uint64_t all = 0;
  for (std::uint32_t i = 0; i < AttentionQueue::kLanes; ++i) all |= q.lane(i);
  return all;
}

TEST(AttentionQueue, EmptyIsNever) {
  AttentionQueue q(4);
  EXPECT_EQ(q.min(), kNeverCycle);
  for (std::uint32_t c = 0; c < 4; ++c) EXPECT_EQ(q.at(c), kNeverCycle);
}

TEST(AttentionQueue, MinTracksSlotRewrites) {
  AttentionQueue q(3);
  q.set(0, 100);
  q.set(1, 50);
  q.set(2, 75);
  EXPECT_EQ(q.min(), 50u);
  // Postponing the minimum invalidates its heap entry lazily.
  q.set(1, 200);
  EXPECT_EQ(q.min(), 75u);
  // Pulling a core earlier (WFE wake via invalidation) shows up immediately.
  q.set(0, 10);
  EXPECT_EQ(q.min(), 10u);
  EXPECT_EQ(q.at(0), 10u);
}

TEST(AttentionQueue, IdleCoresLeaveTheQueue) {
  AttentionQueue q(2);
  q.set(0, 5);
  q.set(1, 9);
  EXPECT_EQ(q.min(), 5u);
  q.set(0, kNeverCycle);  // core 0 went idle
  EXPECT_EQ(q.min(), 9u);
  q.set(1, kNeverCycle);
  EXPECT_EQ(q.min(), kNeverCycle);
}

TEST(AttentionQueue, SurvivesManyStaleEntries) {
  // Repeated rewrites of the same slots force the compaction path and must
  // never surface a stale minimum.
  AttentionQueue q(4);
  for (Cycle i = 1; i <= 10'000; ++i) {
    q.set(i % 4, i);
    // The other slots keep their older (smaller) values, except slot i%4.
    Cycle expect = kNeverCycle;
    for (std::uint32_t c = 0; c < 4; ++c)
      if (q.at(c) != kNeverCycle) expect = std::min(expect, q.at(c));
    ASSERT_EQ(q.min(), expect) << "after set #" << i;
  }
}

TEST(AttentionQueue, TakeDueReturnsExactlyTheCoresDueByNow) {
  AttentionQueue q(64);
  q.set(0, 10);
  q.set(5, 12);
  q.set(63, 10);
  q.set(7, 30);
  q.set(5, 40);  // postponed: its lane bit at 12 is cleared
  q.set(9, 11);
  q.set(9, 10);  // pulled earlier: one bit results
  EXPECT_EQ(q.take_due(9), 0u);
  EXPECT_EQ(q.take_due(12), (1ULL << 0) | (1ULL << 9) | (1ULL << 63));
  // Taken cores leave the wheel; the slots stay until the caller sets them.
  EXPECT_EQ(q.take_due(12), 0u);
  EXPECT_EQ(q.at(0), 10u);
  EXPECT_EQ(q.min(), 30u);
  q.set(0, 30);
  EXPECT_EQ(q.take_due(30), (1ULL << 0) | (1ULL << 7));
  EXPECT_EQ(q.min(), 40u);
  EXPECT_TRUE(wheel_is_exact(q, 64));
}

TEST(AttentionQueue, NextCycleSetComesBackWithoutAHeapPush) {
  AttentionQueue q(8);
  EXPECT_EQ(q.take_due(10), 0u);
  EXPECT_EQ(q.window_lo(), 11u);
  q.set(3, 11);
  q.set(6, 11);
  q.set(1, 15);  // a few cycles ahead: another lane, still no push
  EXPECT_EQ(q.pushes(), 0u);
  EXPECT_EQ(q.lane(11), (1ULL << 3) | (1ULL << 6));
  EXPECT_EQ(q.lane(15), 1ULL << 1);
  EXPECT_EQ(q.min(), 11u);
  EXPECT_EQ(q.take_due(11), (1ULL << 3) | (1ULL << 6));
  EXPECT_EQ(q.pushes(), 0u);
  EXPECT_EQ(q.lane_hits(), 2u);
  EXPECT_EQ(q.window_lo(), 12u);
  EXPECT_EQ(q.min(), 15u);
  EXPECT_EQ(q.take_due(15), 1ULL << 1);
  EXPECT_EQ(q.lane_hits(), 3u);
  // Beyond the window a set still goes through the heap.
  q.set(3, 15 + 64);
  EXPECT_EQ(q.pushes(), 1u);
  EXPECT_EQ(wheel(q), 0u);
  EXPECT_TRUE(wheel_is_exact(q, 8));
}

TEST(AttentionQueue, ResettingALaneCoreLeavesNoStaleBit) {
  AttentionQueue q(4);
  (void)q.take_due(10);
  q.set(1, 11);
  q.set(2, 11);
  q.set(1, 20);  // postponed to another lane
  EXPECT_EQ(q.lane(11), 1ULL << 2);
  EXPECT_EQ(q.lane(20), 1ULL << 1);
  EXPECT_TRUE(wheel_is_exact(q, 4));
  q.set(2, kNeverCycle);  // went idle
  EXPECT_EQ(q.lane(11), 0u);
  EXPECT_EQ(q.occupied(), 1ULL << 20);
  EXPECT_EQ(q.min(), 20u);
  EXPECT_EQ(q.take_due(11), 0u);
  EXPECT_EQ(q.take_due(20), 1ULL << 1);
  EXPECT_TRUE(wheel_is_exact(q, 4));
  EXPECT_EQ(q.pushes(), 0u);
}

TEST(AttentionQueue, NeverBeforeTheFirstTakeDueStaysOutOfTheLane) {
  // Before any take_due the window starts at cycle 0, where load_program
  // files every core; a core set idle there must not leave a bit behind
  // for the window's later cycles.
  AttentionQueue q(2);
  q.set(0, kNeverCycle);
  q.set(1, 0);
  q.set(1, kNeverCycle);
  EXPECT_EQ(wheel(q), 0u);
  EXPECT_EQ(q.occupied(), 0u);
  EXPECT_EQ(q.pushes(), 0u);
  EXPECT_EQ(q.min(), kNeverCycle);
  EXPECT_EQ(q.take_due(0), 0u);
  EXPECT_EQ(wheel(q), 0u);
  q.set(0, 1);
  EXPECT_EQ(q.take_due(1), 1ULL << 0);
  EXPECT_TRUE(wheel_is_exact(q, 2));
}

TEST(AttentionQueue, MinIsTheLowerOfTheLaneAndTheHeapTop) {
  AttentionQueue q(4);
  (void)q.take_due(10);
  q.set(0, 11);
  q.set(1, 150);
  EXPECT_EQ(q.min(), 11u);  // wheel below the heap top
  q.set(0, 160);
  EXPECT_EQ(q.min(), 150u);  // empty wheel: the heap top
  q.set(0, 40);
  q.set(3, 20);
  EXPECT_EQ(q.min(), 20u);  // the first occupied lane, not the lowest index
  q.set(2, 10);             // woken back to the swept cycle
  EXPECT_EQ(q.min(), 10u);  // heap top below the wheel
}

TEST(AttentionQueue, SecondTakeDueAtTheSameCycleKeepsTheLane) {
  // A core woken back to the swept cycle is taken by a second pass at that
  // cycle; the wheel keeps serving the cycles after it.
  AttentionQueue q(4);
  (void)q.take_due(10);
  q.set(0, 11);
  q.set(1, 12);
  q.set(3, 10);
  EXPECT_EQ(q.take_due(10), 1ULL << 3);
  EXPECT_EQ(q.lane(11), 1ULL << 0);
  EXPECT_EQ(q.lane(12), 1ULL << 1);
  EXPECT_EQ(q.window_lo(), 11u);
  EXPECT_EQ(q.take_due(11), 1ULL << 0);
  EXPECT_EQ(q.take_due(12), 1ULL << 1);
}

TEST(AttentionQueue, HeapEntryAtTheNewLaneCycleMovesIntoTheLane) {
  AttentionQueue q(4);
  q.set(2, 70);  // filed while the window was [0, 63)
  q.set(3, 75);
  EXPECT_EQ(q.pushes(), 2u);
  EXPECT_EQ(wheel(q), 0u);
  EXPECT_EQ(q.take_due(10), 0u);  // the window [11, 74) reaches cycle 70
  EXPECT_EQ(q.lane(70 % 64), 1ULL << 2);
  EXPECT_EQ(wheel(q), 1ULL << 2);
  EXPECT_TRUE(wheel_is_exact(q, 4));
  EXPECT_EQ(q.take_due(70), 1ULL << 2);  // [71, 134) takes in cycle 75
  EXPECT_EQ(wheel(q), 1ULL << 3);
  EXPECT_EQ(q.take_due(75), 1ULL << 3);
  EXPECT_EQ(q.lane_hits(), 2u);
}

TEST(AttentionQueue, CompactionKeepsLaneMembers) {
  AttentionQueue q(4);
  (void)q.take_due(0);
  q.set(0, 1);
  q.set(1, 1);
  // Rewrites of cores 2 and 3 beyond the window grow the heap past its
  // compaction bound.
  for (Cycle i = 0; i < 100; ++i) {
    q.set(2 + i % 2, 100 + i);
    ASSERT_EQ(q.lane(1), (1ULL << 0) | (1ULL << 1)) << "after set #" << i;
    ASSERT_EQ(q.min(), 1u);
  }
  EXPECT_EQ(q.pushes(), 100u);
  EXPECT_TRUE(wheel_is_exact(q, 4));
  EXPECT_EQ(q.take_due(1), (1ULL << 0) | (1ULL << 1));
  EXPECT_EQ(q.min(), 198u);
  EXPECT_EQ(q.take_due(199), (1ULL << 2) | (1ULL << 3));
  EXPECT_EQ(q.min(), kNeverCycle);
}

TEST(AttentionQueue, SetAtTheLastWindowCycleStaysOutOfTheHeap) {
  AttentionQueue q(64);
  (void)q.take_due(100);  // the base: the window is [101, 164)
  q.set(5, 100 + 63);
  EXPECT_EQ(q.pushes(), 0u);
  EXPECT_EQ(q.lane(163 % 64), 1ULL << 5);
  EXPECT_EQ(q.min(), 163u);
  // The last window cycle shares no lane with the base's.
  EXPECT_EQ(q.lane(100 % 64) & (1ULL << 5), 0u) << "lane of 100 is 163's";
  EXPECT_EQ(q.take_due(162), 0u);
  EXPECT_EQ(q.take_due(163), 1ULL << 5);
  // All 64 cores at the next cycle: every one counts as a hand-over.
  for (std::uint32_t c = 0; c < 64; ++c) q.set(c, 164);
  EXPECT_EQ(q.take_due(164), ~0ULL);
  EXPECT_EQ(q.lane_hits(), 65u);
  EXPECT_EQ(q.pushes(), 0u);
}

TEST(AttentionQueue, SetPastTheWindowEntersTheWheelWhenTheWindowReachesIt) {
  AttentionQueue q(4);
  (void)q.take_due(100);  // the base: the window is [101, 164)
  q.set(2, 100 + 64);     // the base's own lane: beyond the window
  EXPECT_EQ(q.pushes(), 1u);
  EXPECT_EQ(wheel(q), 0u);
  EXPECT_EQ(q.min(), 164u);
  EXPECT_TRUE(wheel_is_exact(q, 4));
  EXPECT_EQ(q.take_due(101), 0u);  // the window [102, 165) reaches it
  EXPECT_EQ(q.lane(164 % 64), 1ULL << 2);
  EXPECT_TRUE(wheel_is_exact(q, 4));
  EXPECT_EQ(q.take_due(164), 1ULL << 2);
  EXPECT_EQ(q.lane_hits(), 1u);
  EXPECT_EQ(q.pushes(), 1u);
}

TEST(AttentionQueue, SameCycleWakeTakesTheHeapAndTheSecondPass) {
  // A wake back to the cycle being swept lies below the window: it is
  // pushed to the heap, and the run loop's next pass at the same cycle
  // takes it without touching the wheel.
  AttentionQueue q(4);
  q.set(0, 20);
  q.set(1, 20);
  q.set(3, 21);
  EXPECT_EQ(q.take_due(20), (1ULL << 0) | (1ULL << 1));
  q.set(1, 23);  // core 1 stepped
  q.set(0, 20);  // core 0 woken back to the swept cycle by core 1's step
  EXPECT_EQ(q.pushes(), 1u);
  EXPECT_EQ(wheel(q), (1ULL << 1) | (1ULL << 3));
  EXPECT_TRUE(wheel_is_exact(q, 4));
  EXPECT_EQ(q.min(), 20u);
  EXPECT_EQ(q.take_due(20), 1ULL << 0);
  EXPECT_EQ(q.window_lo(), 21u);
  q.set(0, 22);
  EXPECT_EQ(q.min(), 21u);
  EXPECT_EQ(q.take_due(21), 1ULL << 3);
  EXPECT_EQ(q.lane_hits(), 3u);  // cores 0 and 1 at 20, core 3 at 21
}

}  // namespace
}  // namespace armbar::sim

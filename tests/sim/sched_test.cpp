// Unit tests for the attention scheduler: the lazy min-heap and the
// next-cycle lane beside it.
#include <gtest/gtest.h>

#include "sim/sched.hpp"

namespace armbar::sim {
namespace {

/// The lane holds exactly the cores whose slot is the lane cycle.
::testing::AssertionResult lane_is_exact(const AttentionQueue& q,
                                         std::uint32_t num_cores) {
  for (std::uint32_t c = 0; c < num_cores; ++c)
    if ((((q.lane() >> c) & 1) != 0) != (q.at(c) == q.lane_at()))
      return ::testing::AssertionFailure()
             << "core " << c << " slot " << q.at(c) << ", lane at "
             << q.lane_at() << " mask " << q.lane();
  return ::testing::AssertionSuccess();
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
  q.set(5, 40);  // postponed: its entry at 12 is stale
  q.set(9, 11);
  q.set(9, 10);  // pulled earlier: both entries are due, one bit results
  EXPECT_EQ(q.take_due(9), 0u);
  EXPECT_EQ(q.take_due(12), (1ULL << 0) | (1ULL << 9) | (1ULL << 63));
  // Taken entries leave the heap; the slots stay until the caller sets them.
  EXPECT_EQ(q.take_due(12), 0u);
  EXPECT_EQ(q.at(0), 10u);
  EXPECT_EQ(q.min(), 30u);
  q.set(0, 30);
  EXPECT_EQ(q.take_due(30), (1ULL << 0) | (1ULL << 7));
  EXPECT_EQ(q.min(), 40u);
}

TEST(AttentionQueue, NextCycleSetComesBackWithoutAHeapPush) {
  AttentionQueue q(8);
  EXPECT_EQ(q.take_due(10), 0u);
  EXPECT_EQ(q.lane_at(), 11u);
  q.set(3, 11);
  q.set(6, 11);
  EXPECT_EQ(q.pushes(), 0u);
  EXPECT_EQ(q.lane(), (1ULL << 3) | (1ULL << 6));
  EXPECT_EQ(q.min(), 11u);
  EXPECT_EQ(q.take_due(11), (1ULL << 3) | (1ULL << 6));
  EXPECT_EQ(q.pushes(), 0u);
  EXPECT_EQ(q.lane_hits(), 2u);
  EXPECT_EQ(q.lane_at(), 12u);
  // Any other cycle still goes through the heap.
  q.set(3, 14);
  EXPECT_EQ(q.pushes(), 1u);
  EXPECT_EQ(q.lane(), 0u);
  EXPECT_TRUE(lane_is_exact(q, 8));
}

TEST(AttentionQueue, ResettingALaneCoreLeavesNoStaleBit) {
  AttentionQueue q(4);
  (void)q.take_due(10);
  q.set(1, 11);
  q.set(2, 11);
  q.set(1, 20);  // postponed off the lane cycle
  EXPECT_EQ(q.lane(), 1ULL << 2);
  EXPECT_TRUE(lane_is_exact(q, 4));
  q.set(2, kNeverCycle);  // went idle
  EXPECT_EQ(q.lane(), 0u);
  EXPECT_EQ(q.min(), 20u);
  EXPECT_EQ(q.take_due(11), 0u);
  EXPECT_EQ(q.take_due(20), 1ULL << 1);
  EXPECT_TRUE(lane_is_exact(q, 4));
}

TEST(AttentionQueue, NeverBeforeTheFirstTakeDueStaysOutOfTheLane) {
  // Before any take_due the lane serves cycle 0, where load_program files
  // every core; a core set idle there must not leave a bit behind for the
  // lane's later cycles.
  AttentionQueue q(2);
  q.set(0, kNeverCycle);
  q.set(1, 0);
  q.set(1, kNeverCycle);
  EXPECT_EQ(q.lane(), 0u);
  EXPECT_EQ(q.pushes(), 0u);
  EXPECT_EQ(q.min(), kNeverCycle);
  EXPECT_EQ(q.take_due(0), 0u);
  EXPECT_EQ(q.lane(), 0u);
  q.set(0, 1);
  EXPECT_EQ(q.take_due(1), 1ULL << 0);
  EXPECT_TRUE(lane_is_exact(q, 2));
}

TEST(AttentionQueue, MinIsTheLowerOfTheLaneAndTheHeapTop) {
  AttentionQueue q(4);
  (void)q.take_due(10);
  q.set(0, 11);
  q.set(1, 50);
  EXPECT_EQ(q.min(), 11u);  // lane below the heap top
  q.set(0, 60);
  EXPECT_EQ(q.min(), 50u);  // empty lane: the heap top
  q.set(0, 11);
  q.set(2, 10);             // woken back to the swept cycle
  EXPECT_EQ(q.min(), 10u);  // heap top below the lane
}

TEST(AttentionQueue, SecondTakeDueAtTheSameCycleKeepsTheLane) {
  // A core woken back to the swept cycle is taken by a second pass at that
  // cycle; the lane keeps serving the next one.
  AttentionQueue q(4);
  (void)q.take_due(10);
  q.set(0, 11);
  q.set(3, 10);
  EXPECT_EQ(q.take_due(10), 1ULL << 3);
  EXPECT_EQ(q.lane(), 1ULL << 0);
  EXPECT_EQ(q.lane_at(), 11u);
  EXPECT_EQ(q.take_due(11), 1ULL << 0);
}

TEST(AttentionQueue, HeapEntryAtTheNewLaneCycleMovesIntoTheLane) {
  AttentionQueue q(4);
  q.set(2, 11);  // filed while the lane served cycle 0
  q.set(3, 12);
  EXPECT_EQ(q.pushes(), 2u);
  EXPECT_EQ(q.take_due(10), 0u);
  EXPECT_EQ(q.lane(), 1ULL << 2);
  EXPECT_TRUE(lane_is_exact(q, 4));
  EXPECT_EQ(q.take_due(11), 1ULL << 2);
  EXPECT_EQ(q.lane(), 1ULL << 3);
  EXPECT_EQ(q.take_due(12), 1ULL << 3);
}

TEST(AttentionQueue, CompactionKeepsLaneMembers) {
  AttentionQueue q(4);
  (void)q.take_due(0);
  q.set(0, 1);
  q.set(1, 1);
  // Rewrites of cores 2 and 3 grow the heap past its compaction bound.
  for (Cycle i = 0; i < 100; ++i) {
    q.set(2 + i % 2, 100 + i);
    ASSERT_EQ(q.lane(), (1ULL << 0) | (1ULL << 1)) << "after set #" << i;
    ASSERT_EQ(q.min(), 1u);
  }
  EXPECT_EQ(q.pushes(), 100u);
  EXPECT_TRUE(lane_is_exact(q, 4));
  EXPECT_EQ(q.take_due(1), (1ULL << 0) | (1ULL << 1));
  EXPECT_EQ(q.min(), 198u);
  EXPECT_EQ(q.take_due(199), (1ULL << 2) | (1ULL << 3));
  EXPECT_EQ(q.min(), kNeverCycle);
}

}  // namespace
}  // namespace armbar::sim

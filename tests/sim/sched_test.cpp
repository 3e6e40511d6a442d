// Unit tests for the lazy-min-heap attention scheduler (ISSUE 7).
#include <gtest/gtest.h>

#include "sim/sched.hpp"

namespace armbar::sim {
namespace {

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

}  // namespace
}  // namespace armbar::sim

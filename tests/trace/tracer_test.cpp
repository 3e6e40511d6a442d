// Ring-buffer tracer mechanics: wraparound accounting, snapshot order and
// enable/disable. Metrics are not the tracer's job (see
// run_metrics_test.cpp for RunConfig::metrics).
#include <gtest/gtest.h>

#include "trace/trace.hpp"

namespace armbar::trace {
namespace {

Event instant(Cycle at, std::uint64_t tag) {
  Event e;
  e.begin = e.end = at;
  e.a = tag;
  return e;
}

TEST(Tracer, EmptyOnConstruction) {
  Tracer t(8);
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, FillsWithoutDropsUpToCapacity) {
  Tracer t(16);
  for (std::uint64_t i = 0; i < 16; ++i) t.emit(instant(i, i));
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.emitted(), 16u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, WraparoundKeepsNewestAndCountsDropped) {
  constexpr std::size_t kCap = 16;
  Tracer t(kCap);
  for (std::uint64_t i = 0; i < 3 * kCap; ++i) t.emit(instant(i, i));
  EXPECT_EQ(t.size(), kCap);
  EXPECT_EQ(t.emitted(), 3 * kCap);
  EXPECT_EQ(t.dropped(), 2 * kCap);

  // The survivors are the newest kCap events, oldest first.
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), kCap);
  for (std::size_t i = 0; i < kCap; ++i)
    EXPECT_EQ(snap[i].a, 2 * kCap + i) << "slot " << i;
}

TEST(Tracer, WraparoundAtNonBoundaryOffset) {
  Tracer t(8);
  for (std::uint64_t i = 0; i < 13; ++i) t.emit(instant(i, i));
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 5u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().a, 5u);
  EXPECT_EQ(snap.back().a, 12u);
}

TEST(Tracer, DisabledTracerEmitsNothing) {
  Tracer t(8);
  t.set_enabled(false);

  t.emit(instant(1, 1));
  t.instr_issue(0, 0, 0, 1);
  t.stall(0, 0, 1, 0, 10);
  t.sb_enqueue(0, 1, 0x40, 2);
  t.sb_drain_retire(0, 1, 2, 9);
  t.barrier_issue(0, 3, 7, 4);
  t.barrier_txn(0, 7, 4, 9);
  t.barrier_complete(0, 3, 7, 4, 9);
  t.coh_transfer(0, 0x40, CohKind::kGetMRemote, 1, 5);

  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.size(), 0u);

  // Re-enabling resumes recording.
  t.set_enabled(true);
  t.emit(instant(2, 2));
  EXPECT_EQ(t.emitted(), 1u);
}

TEST(Tracer, ClearResetsRingButKeepsConfiguration) {
  Tracer t(4);
  for (std::uint64_t i = 0; i < 9; ++i) t.emit(instant(i, i));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  t.emit(instant(1, 42));
  EXPECT_EQ(t.snapshot().at(0).a, 42u);
}

TEST(Tracer, StallCauseNamesFallBackToCode) {
  Tracer t(4);
  EXPECT_EQ(t.stall_cause_name(3), "3");
  t.set_stall_cause_names({"none", "operand", "barrier"});
  EXPECT_EQ(t.stall_cause_name(2), "barrier");
  EXPECT_EQ(t.stall_cause_name(9), "9");
}

TEST(Tracer, ZeroLengthStallIsNotRecorded) {
  Tracer t(4);
  t.stall(0, 0, 1, 5, 5);
  EXPECT_EQ(t.emitted(), 0u);
}

}  // namespace
}  // namespace armbar::trace

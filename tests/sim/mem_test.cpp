// MemorySystem unit tests: MESI transitions, NUMA latency classes,
// line-transfer serialization, invalidation hooks.
#include <gtest/gtest.h>

#include "sim/mem.hpp"

namespace armbar::sim {
namespace {

struct InvEvent {
  CoreId core;
  Addr line;
  Cycle at;
};

class MemTest : public ::testing::Test {
 protected:
  MemTest() : spec_(kunpeng916()), mem_(spec_, 1u << 20) {
    mem_.set_invalidate_hook([this](CoreId c, Addr l, Cycle at) {
      events_.push_back({c, l, at});
    });
  }
  PlatformSpec spec_;
  MemorySystem mem_;
  std::vector<InvEvent> events_;
};

TEST_F(MemTest, PokePeek) {
  mem_.poke(0x100, 42);
  EXPECT_EQ(mem_.peek(0x100), 42u);
}

TEST_F(MemTest, ColdLoadFillsFromMemory) {
  std::uint64_t v = 0;
  mem_.poke(0x200, 9);
  const Cycle done = mem_.load(/*core=*/0, 0x200, /*now=*/10, v);
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(done, 10 + spec_.lat.mem_local);
  EXPECT_TRUE(mem_.load_hits(0, 0x200));
}

TEST_F(MemTest, SecondLoadHits) {
  std::uint64_t v = 0;
  mem_.load(0, 0x200, 0, v);
  const Cycle before = mem_.stats().hits;
  const Cycle done = mem_.load(0, 0x200, 1000, v);
  EXPECT_EQ(done, 1000 + spec_.lat.cache_hit);
  EXPECT_EQ(mem_.stats().hits, before + 1);
}

TEST_F(MemTest, RemoteHomeLoadCostsMore) {
  mem_.set_home(0x10000, 0x1000, /*node=*/1);
  std::uint64_t v = 0;
  const Cycle done = mem_.load(/*core=*/0, 0x10000, 0, v);  // core 0 is node 0
  EXPECT_EQ(done, spec_.lat.mem_remote);
}

TEST_F(MemTest, StoreTakesOwnershipAndSecondStoreIsCheap) {
  bool remote = false;
  const Cycle d1 = mem_.store(0, 0x300, 1, 0, remote);
  EXPECT_GT(d1, 0u);
  // Ownership lands when the in-flight store completes.
  const Cycle d2 = mem_.store(0, 0x308, 2, d1, remote);
  EXPECT_TRUE(mem_.owns(0, 0x300));
  EXPECT_EQ(d2, d1 + spec_.lat.owned_drain);  // same line, already owned
}

TEST_F(MemTest, StoreInvalidatesSharersAtCompletion) {
  std::uint64_t v = 0;
  mem_.load(1, 0x400, 0, v);
  mem_.load(2, 0x400, 0, v);
  bool remote = false;
  const Cycle done = mem_.store(0, 0x400, 5, 1000, remote);
  // Victims are notified immediately (so WFE/monitors react)...
  ASSERT_EQ(events_.size(), 2u);
  EXPECT_EQ(events_[0].core, 1u);
  EXPECT_EQ(events_[1].core, 2u);
  EXPECT_EQ(events_[0].at, done);
  // ...but their stale S copies survive until the store completes: this is
  // the weakly-ordered visibility window.
  EXPECT_TRUE(mem_.load_hits(1, 0x400));
  std::uint64_t stale = 99;
  const Cycle hit_done = mem_.load(1, 0x400, 1001, stale);
  EXPECT_EQ(stale, 0u);  // old value
  EXPECT_EQ(hit_done, 1001 + spec_.lat.cache_hit);
  // After completion the invalidation has landed.
  mem_.load(1, 0x400, done + 1, stale);
  EXPECT_EQ(stale, 5u);
  EXPECT_FALSE(mem_.load_hits(2, 0x400));
}

TEST_F(MemTest, PendingValueVisibleToPeekAndSerializedLoads) {
  bool remote = false;
  const Cycle done = mem_.store(0, 0x480, 7, 0, remote);
  EXPECT_EQ(mem_.peek(0x480), 7u);  // end-of-time view
  // A miss from another core serializes after completion and sees 7.
  std::uint64_t v = 0;
  const Cycle ld = mem_.load(1, 0x480, 1, v);
  EXPECT_GE(ld, done);
  EXPECT_EQ(v, 7u);
}

TEST_F(MemTest, LocalVsRemoteInvalidationLatency) {
  // Cores 0 and 1 are on node 0; core 32 is on node 1 in kunpeng916.
  std::uint64_t v = 0;
  bool remote = false;

  mem_.load(1, 0x500, 0, v);
  const Cycle local = mem_.store(0, 0x500, 1, 1000, remote) - 1000;
  EXPECT_FALSE(remote);
  EXPECT_EQ(local, spec_.lat.inv_local);

  mem_.load(32, 0x600, 0, v);
  const Cycle cross = mem_.store(0, 0x600, 1, 10000, remote) - 10000;
  EXPECT_TRUE(remote);
  EXPECT_EQ(cross, spec_.lat.inv_remote);
}

TEST_F(MemTest, OwnershipTransferNotedAsRemoteSnoop) {
  bool remote = false;
  mem_.store(32, 0x700, 1, 0, remote);  // node-1 core owns the line
  const Cycle start = 10000;
  const Cycle done = mem_.store(0, 0x700, 2, start, remote);
  EXPECT_TRUE(remote);
  EXPECT_EQ(done - start, spec_.lat.inv_remote);
}

TEST_F(MemTest, LoadFromOwnerDowngrades) {
  bool remote = false;
  mem_.store(1, 0x800, 7, 0, remote);
  std::uint64_t v = 0;
  const Cycle start = 10000;
  const Cycle done = mem_.load(0, 0x800, start, v);
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(done - start, spec_.lat.c2c_local);
  // Both now share; neither owns.
  EXPECT_TRUE(mem_.load_hits(0, 0x800));
  EXPECT_TRUE(mem_.load_hits(1, 0x800));
  EXPECT_FALSE(mem_.owns(1, 0x800));
}

TEST_F(MemTest, ReadTransfersPipeline) {
  // Two back-to-back read misses on the same line pipeline: the second
  // starts after the first's occupancy window, not its full latency.
  std::uint64_t v = 0;
  bool remote = false;
  mem_.store(5, 0x900, 1, 0, remote);  // core 5 owns
  const Cycle busy = mem_.line_state(0x900).busy_until;
  const Cycle d0 = mem_.load(0, 0x900, busy, v);
  const Cycle d1 = mem_.load(1, 0x900, busy, v);
  EXPECT_GT(d1, d0);
  EXPECT_EQ(d1 - d0, spec_.lat.read_occupancy);
}

TEST_F(MemTest, OwnershipTransfersSerializeFully) {
  // GetM transfers stay strictly serial on the line.
  std::uint64_t v = 0;
  bool remote = false;
  mem_.load(5, 0xd00, 0, v);  // give core 5 a copy so stores must invalidate
  const Cycle d0 = mem_.store(0, 0xd00, 1, 1000, remote);
  const Cycle d1 = mem_.store(1, 0xd00, 2, 1000, remote);
  EXPECT_GE(d1 - d0, spec_.lat.inv_local);
}

TEST_F(MemTest, DifferentLinesDoNotSerialize) {
  std::uint64_t v = 0;
  bool remote = false;
  mem_.store(5, 0xa00, 1, 0, remote);
  mem_.store(5, 0xa40, 2, 0, remote);
  const Cycle d0 = mem_.load(0, 0xa00, 5000, v);
  const Cycle d1 = mem_.load(1, 0xa40, 5000, v);
  EXPECT_EQ(d0, d1);  // independent lines proceed in parallel
}

TEST_F(MemTest, AnyRemoteHolder) {
  std::uint64_t v = 0;
  EXPECT_FALSE(mem_.any_remote_holder(0, 0xb00));
  mem_.load(0, 0xb00, 0, v);
  EXPECT_FALSE(mem_.any_remote_holder(0, 0xb00));
  mem_.load(3, 0xb00, 0, v);
  EXPECT_TRUE(mem_.any_remote_holder(0, 0xb00));
}

TEST_F(MemTest, StatsCountTrafficClasses) {
  std::uint64_t v = 0;
  bool remote = false;
  mem_.store(1, 0xc00, 1, 0, remote);   // fill from memory
  mem_.load(0, 0xc00, 1000, v);         // local c2c
  mem_.load(32, 0xc00, 5000, v);        // remote c2c
  mem_.store(33, 0xc00, 2, 9000, remote);  // remote inv
  const auto& s = mem_.stats();
  EXPECT_GE(s.mem_fills, 1u);
  EXPECT_GE(s.gets_local, 1u);
  EXPECT_GE(s.gets_remote, 1u);
  EXPECT_GE(s.getm_remote, 1u);
}

TEST_F(MemTest, UnalignedAccessAborts) {
  std::uint64_t v = 0;
  EXPECT_DEATH(mem_.load(0, 0x101, 0, v), "unaligned");
}

TEST_F(MemTest, OutOfRangeAborts) {
  std::uint64_t v = 0;
  EXPECT_DEATH(mem_.load(0, 1u << 21 << 3, 0, v), "out of simulated memory");
}

// Lazy backing: a 64 MiB span costs nothing until an access mutates it,
// and an untouched page reads exactly like a touched page nobody holds.
class LazyMemTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSpan = 64u << 20;
  LazyMemTest() : spec_(kunpeng916()), mem_(spec_, kSpan) {}
  PlatformSpec spec_;
  MemorySystem mem_;
};

TEST_F(LazyMemTest, ConstQueriesOnUntouchedPagesAllocateNothing) {
  EXPECT_EQ(mem_.size_bytes(), kSpan);
  for (const Addr a : {Addr{0}, Addr{0x1000}, Addr{kSpan / 2}, Addr{kSpan - 8}}) {
    EXPECT_EQ(mem_.peek(a), 0u);
    EXPECT_FALSE(mem_.load_hits(3, a));
    EXPECT_FALSE(mem_.owns(3, a));
    EXPECT_FALSE(mem_.any_remote_holder(3, a));
    const LineState& ls = mem_.line_state(a);
    EXPECT_EQ(ls.owner, kNoOwner);
    EXPECT_EQ(ls.sharers, 0u);
    EXPECT_EQ(ls.busy_until, 0u);
    EXPECT_FALSE(ls.pending);
  }
  EXPECT_EQ(mem_.resident_pages(), 0u);
}

TEST_F(LazyMemTest, MutatingAccessBacksOnlyItsPage) {
  mem_.poke(0x1008, 5);
  EXPECT_EQ(mem_.resident_pages(), 1u);
  EXPECT_EQ(mem_.peek(0x1008), 5u);
  EXPECT_EQ(mem_.peek(0x1000), 0u);
  std::uint64_t v = 0;
  mem_.load(0, 0x1fc0, 0, v);  // same page
  EXPECT_EQ(mem_.resident_pages(), 1u);
  bool remote = false;
  mem_.store(0, 0x2000, 1, 0, remote);  // next page
  EXPECT_EQ(mem_.resident_pages(), 2u);
}

TEST_F(LazyMemTest, LastWordOfSpanRoundTrips) {
  const Addr last = kSpan - kWordBytes;
  mem_.poke(last, 0xfeed);
  EXPECT_EQ(mem_.peek(last), 0xfeedu);
  bool remote = false;
  const Cycle done = mem_.store(0, last, 0xbeef, 0, remote);
  std::uint64_t v = 0;
  mem_.load(1, last, done, v);
  EXPECT_EQ(v, 0xbeefu);
  EXPECT_EQ(mem_.resident_pages(), 1u);
}

TEST_F(LazyMemTest, SpanEndStillAborts) {
  std::uint64_t v = 0;
  EXPECT_DEATH((void)mem_.peek(kSpan), "out of simulated memory");
  EXPECT_DEATH(mem_.load(0, kSpan, 0, v), "out of simulated memory");
}

}  // namespace
}  // namespace armbar::sim

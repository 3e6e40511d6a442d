// Tier-1 mini-chaos: a real Fleet — forked worker processes, supervisor
// SIGKILLs at seeded random points, restarts — must drain with exact gap
// accounting, zero duplicate deliveries, and zero leftover segments. This
// is the ISSUE 8 acceptance property at test scale (10 kills, ~1 s).
#include <gtest/gtest.h>

#include "shmsvc/service.hpp"

namespace armbar::shmsvc {
namespace {

TEST(ChaosMini, TenSeededProducerKillsDrainExactly) {
  const std::string worker = find_tool("armbar-load");
  ASSERT_FALSE(worker.empty())
      << "armbar-load not built or not findable from the test binary";

  FleetConfig cfg;
  cfg.seg.name = "mini";
  cfg.seg.kind = ChannelKind::kRing;
  cfg.seg.channels = 2;
  cfg.seg.capacity = 128;
  cfg.seg.records = 1u << 20;  // the run ends by kill budget, then
                               // stop+drain
  cfg.seg.seed = 99;
  cfg.consumers_per_channel = 2;
  cfg.worker_bin = worker;
  cfg.deadline_ms = 120000;
  cfg.chaos = true;
  cfg.chaos_seed = 42;
  // The window closes when the kill budget is spent. Its kills are spaced
  // by production (one per records / 20 tickets), so all ten land within
  // half of one channel's stream, however fast the host drains it.
  cfg.chaos_ms = 0;
  cfg.chaos_max_kills = 10;
  cfg.crash_plan_pct = 50;
  cfg.victims = ChaosVictims::kProducersOnly;

  Fleet fleet(cfg);
  const FleetResult res = fleet.run();

  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.interrupted);
  EXPECT_GE(res.kills, 10u);
  EXPECT_GE(res.restarts, 10u);
  EXPECT_EQ(res.duplicates, 0u);
  // The accounting identity: every produced ticket is either delivered
  // exactly once or a counted gap — nothing lost, nothing doubled.
  EXPECT_EQ(res.delivered + res.gaps, res.produced);
  ASSERT_EQ(res.channels.size(), 2u);
  for (const ChannelAudit& ch : res.channels) {
    EXPECT_TRUE(ch.identity_ok);
    EXPECT_EQ(ch.duplicates, 0u);
    EXPECT_EQ(ch.unmarked, 0u);
    EXPECT_EQ(ch.overmarks, 0u);
    EXPECT_EQ(ch.consumed, ch.produced);
  }
  EXPECT_TRUE(res.segments_clean);
}

}  // namespace
}  // namespace armbar::shmsvc

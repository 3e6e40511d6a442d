// MachineVerifier + watchdog: clean machines verify clean, seeded
// corruption is detected and diagnosed, and a livelocked run becomes a
// typed SimHang long before max_cycles.
#include <gtest/gtest.h>

#include "sim/fault/fault.hpp"
#include "sim/machine.hpp"
#include "sim/verify.hpp"
#include "trace/json.hpp"

namespace armbar::sim {
namespace {

Program counting_loop(int iters) {
  Asm a;
  a.movi(X0, 0x1000).movi(X2, 0);
  a.label("loop");
  a.str(X2, X0, 0);
  a.addi(X2, X2, 1);
  a.cmpi(X2, iters);
  a.blt("loop");
  a.halt();
  return a.take("count-loop");
}

TEST(Verifier, CleanMachineVerifiesClean) {
  Machine m(rpi4(), 1u << 20);
  Program p = counting_loop(100);
  m.load_program(0, p);
  const MachineVerifier v(m);
  EXPECT_EQ(v.check(0), "");
  RunConfig cfg;
  cfg.verify_every = 64;
  auto r = m.run(cfg);  // cadence sweeps must not fire on a healthy run
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(v.check(r.cycles), "");
}

TEST(Verifier, CadencedRunMatchesUncheckedCycles) {
  auto run_one = [](Cycle verify_every) {
    Machine m(rpi4(), 1u << 20);
    Program p = counting_loop(100);
    m.load_program(0, p);
    m.load_program(1, p);
    RunConfig cfg;
    cfg.verify_every = verify_every;
    auto r = m.run(cfg);
    EXPECT_TRUE(r.completed);
    return r.cycles;
  };
  // Verification is observation-only: it must not perturb timing.
  EXPECT_EQ(run_one(0), run_one(16));
}

TEST(Verifier, DetectsForeignSharerOfOwnedLine) {
  Machine m(rpi4(), 1u << 20);
  LineState ls;
  ls.owner = 0;
  ls.sharers = 1ULL << 2;  // single-writer broken: M copy + foreign S copy
  m.mem().debug_set_line_state(0x5000, ls);
  const MachineVerifier v(m);
  const std::string violation = v.check(0);
  ASSERT_NE(violation, "");
  EXPECT_NE(violation.find("0x5000"), std::string::npos) << violation;
}

TEST(Verifier, DetectsSharerMaskOutsideMachine) {
  Machine m(rpi4(), 1u << 20);  // 4 cores
  LineState ls;
  ls.sharers = 1ULL << 9;  // no core 9 exists
  m.mem().debug_set_line_state(0x5000, ls);
  EXPECT_NE(MachineVerifier(m).check(0), "");
}

TEST(Verifier, DetectsMalformedPendingStore) {
  Machine m(rpi4(), 1u << 20);
  LineState ls;
  ls.owner = 1;
  ls.pending = true;
  ls.pending_at = 100;
  ls.busy_until = 100;
  ls.pending_owner = kNoOwner;  // in-flight store with no writer
  m.mem().debug_set_line_state(0x5000, ls);
  EXPECT_NE(MachineVerifier(m).check(0), "");
}

TEST(Verifier, DetectsForeignSharerOnLastLineOfSpan) {
  constexpr std::size_t kSpan = 64u << 20;
  Machine m(rpi4(), kSpan);
  LineState ls;
  ls.owner = 0;
  ls.sharers = 1ULL << 2;
  m.mem().debug_set_line_state(kSpan - kCacheLineBytes, ls);
  const std::string violation = MachineVerifier(m).check(0);
  EXPECT_TRUE(violation.starts_with(
      "line 0x3ffffc0: owner 0 coexists with foreign sharers"))
      << violation;
}

TEST(Verifier, ReportsLowestViolationAcrossPages) {
  Machine m(rpi4(), 64u << 20);
  LineState foreign_sharer;
  foreign_sharer.owner = 0;
  foreign_sharer.sharers = 1ULL << 2;
  LineState bad_mask;
  bad_mask.sharers = 1ULL << 9;  // rpi4 has no core 9
  // Back the higher page first: the report follows addresses, not the
  // order pages were touched in.
  m.mem().debug_set_line_state(0x2000040, foreign_sharer);
  m.mem().debug_set_line_state(0x5000, bad_mask);
  const std::string violation = MachineVerifier(m).check(0);
  EXPECT_TRUE(violation.starts_with("line 0x5000: ")) << violation;
}

TEST(Verifier, CorruptionDuringRunThrowsInvariantViolation) {
  Machine m(rpi4(), 1u << 20);
  Program p = counting_loop(100);
  m.load_program(0, p);
  LineState ls;
  ls.owner = 0;
  ls.sharers = 1ULL << 2;
  m.mem().debug_set_line_state(0x5000, ls);
  RunConfig cfg;
  cfg.verify_every = 16;
  try {
    (void)m.run(cfg);
    FAIL() << "corrupted machine ran to completion";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.diagnostic().kind, "invariant_violation");
    EXPECT_FALSE(e.diagnostic().summary.empty());
    EXPECT_FALSE(e.diagnostic().cores.empty());
    // The bundle renders both as text and as JSON for the bench report.
    EXPECT_NE(e.diagnostic().str().find("invariant_violation"),
              std::string::npos);
    const trace::Json j = e.diagnostic().to_json();
    ASSERT_NE(j.find("kind"), nullptr);
    EXPECT_EQ(j.find("kind")->str(), "invariant_violation");
    ASSERT_NE(j.find("cores"), nullptr);
  }
}

TEST(Verifier, StaleStoreBufferHorizonThrowsInvariantViolation) {
  // A horizon cached for a buffer event that no longer exists is what a
  // buffer change without its dirty mark leaves behind: the pump would
  // sleep through the real next event. The loop never stores, so nothing
  // recomputes the planted value before the first cadence sweep.
  Machine m(rpi4(), 1u << 20);
  Asm a;
  a.movi(X2, 0);
  a.label("loop");
  a.addi(X2, X2, 1);
  a.cmpi(X2, 100);
  a.blt("loop");
  a.halt();
  m.load_program(0, a.take("no-stores"));
  m.core(0).debug_set_sb_horizon(1'000'000);
  RunConfig cfg;
  cfg.verify_every = 16;
  try {
    (void)m.run(cfg);
    FAIL() << "stale horizon ran to completion";
  } catch (const InvariantViolation& e) {
    EXPECT_TRUE(e.diagnostic().summary.starts_with(
        "core 0: cached store-buffer horizon 1000000 but the next event is "
        "at never"))
        << e.diagnostic().summary;
  }
}

TEST(Verifier, StaleSchedulerSlotThrowsInvariantViolation) {
  // A scheduler slot that no longer names the core's next attention is what
  // a wake the invalidate hook failed to mirror leaves behind: the run loop
  // would step core 1 at a cycle the core never asked for.
  Machine m(rpi4(), 1u << 20);
  m.load_program(0, counting_loop(100));
  m.load_program(1, counting_loop(100));
  m.debug_set_attention(1, 1'000'000);
  RunConfig cfg;
  cfg.verify_every = 16;
  try {
    (void)m.run(cfg);
    FAIL() << "stale scheduler slot ran to completion";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.diagnostic().summary,
              "core 1: scheduler slot 1000000 but next attention 0");
    EXPECT_EQ(e.diagnostic().cycle, 16u);
  }
}

TEST(Verifier, StaleWheelBitThrowsInvariantViolation) {
  // A wheel bit left behind by a slot write that bypassed the scheduler:
  // core 1 is filed for cycle 40 while its slot still names cycle 0, its
  // real next attention. The run loop would step it at a cycle its slot
  // no longer names; the slot half of the invariant cannot see it.
  Machine m(rpi4(), 1u << 20);
  m.load_program(0, counting_loop(100));
  m.load_program(1, counting_loop(100));
  m.debug_set_attention(1, 40);
  m.debug_set_attention(1, 0, /*refile=*/false);
  RunConfig cfg;
  cfg.verify_every = 16;
  try {
    (void)m.run(cfg);
    FAIL() << "stale wheel bit ran to completion";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.diagnostic().summary,
              "core 1: in scheduler wheel lane 40 (window [17, 80)) with "
              "scheduler slot 0");
    EXPECT_EQ(e.diagnostic().cycle, 16u);
  }
}

TEST(Watchdog, LivelockedRunThrowsSimHangBeforeMaxCycles) {
  // A drain that is re-postponed with probability 1 never starts, so the
  // DSB below waits forever: live (schedulable) but not progressing.
  fault::FaultPlan plan;
  plan.sb_stall_pm = 1000;
  plan.sb_stall_cycles = 100;
  Machine m(rpi4(), 1u << 20);
  Asm a;
  a.movi(X0, 0x1000).movi(X1, 7);
  a.str(X1, X0, 0);
  a.dsb_full();
  a.halt();
  Program p = a.take("livelock");
  m.load_program(0, p);
  RunConfig cfg;
  cfg.max_cycles = 10'000'000;
  cfg.watchdog_cycles = 20'000;
  cfg.fault = &plan;
  try {
    (void)m.run(cfg);
    FAIL() << "livelocked run completed";
  } catch (const SimHang& e) {
    EXPECT_EQ(e.diagnostic().kind, "hang");
    EXPECT_LT(e.diagnostic().cycle, cfg.max_cycles);
    EXPECT_LT(e.diagnostic().cycle, 10 * cfg.watchdog_cycles);
    EXPECT_FALSE(e.diagnostic().cores.empty());
  }
}

TEST(Watchdog, SpinLoopIsProgressNotAHang) {
  // A consumer polling a flag nobody sets retires instructions forever;
  // the watchdog must not flag it (paper workloads poll constantly).
  Machine m(rpi4(), 1u << 20);
  Asm a;
  a.movi(X0, 0x1000);
  a.label("poll");
  a.ldr(X1, X0, 0);
  a.cbz(X1, "poll");
  a.halt();
  Program p = a.take("spin");
  m.load_program(0, p);
  RunConfig cfg;
  cfg.max_cycles = 100'000;
  cfg.watchdog_cycles = 5'000;
  auto r = m.run(cfg);  // must NOT throw
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.cycles, cfg.max_cycles);
}

TEST(Watchdog, LongRunAheadIsProgressNotAHang) {
  // An untraced core issues a register-only loop ahead of the sweep in one
  // step, about 45,000 cycles here. The cadence's ticks keep sampling the
  // watchdog meanwhile; none of them may read the run as a window without
  // progress.
  Machine m(rpi4(), 1u << 20);
  Asm a;
  a.movi(X2, 0);
  a.label("loop");
  a.addi(X2, X2, 1);
  a.cmpi(X2, 15'000);
  a.blt("loop");
  a.halt();
  m.load_program(0, a.take("long-run"));
  RunConfig cfg;
  cfg.watchdog_cycles = 5'000;
  cfg.verify_every = 16;
  const RunResult r = m.run(cfg);  // must NOT throw
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.cycles, 9 * cfg.watchdog_cycles);
}

TEST(Watchdog, GlobalVerifyCadenceFallsThrough) {
  // RunConfig.verify_every == 0 falls back to the global cadence; a
  // corrupted machine is then caught without per-run plumbing.
  ASSERT_EQ(global_verify_every(), 0u);
  set_global_verify_every(16);
  Machine m(rpi4(), 1u << 20);
  Program p = counting_loop(100);
  m.load_program(0, p);
  LineState ls;
  ls.owner = 0;
  ls.sharers = 1ULL << 2;
  m.mem().debug_set_line_state(0x5000, ls);
  EXPECT_THROW((void)m.run({}), InvariantViolation);
  set_global_verify_every(0);
}

}  // namespace
}  // namespace armbar::sim

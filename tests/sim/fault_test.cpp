// Fault-injection engine: deterministic per-core streams, every fault class
// actually perturbs timing, disabled plans are bit-identical to no plan,
// and the process-global fallback installs/clears cleanly.
#include <gtest/gtest.h>

#include "sim/fault/fault.hpp"
#include "sim/machine.hpp"

namespace armbar::sim {
namespace {

using fault::FaultEngine;
using fault::FaultPlan;

Program store_loop(int iters) {
  Asm a;
  a.movi(X0, 0x1000).movi(X2, 0);
  a.label("loop");
  a.str(X2, X0, 0);
  a.addi(X0, X0, 64);
  a.addi(X2, X2, 1);
  a.cmpi(X2, iters);
  a.blt("loop");
  a.halt();
  return a.take("store-loop");
}

Cycle run_with(const FaultPlan* plan, Program (*make)(int), int iters) {
  Machine m(rpi4(), 1u << 20);
  Program p = make(iters);
  m.load_program(0, p);
  RunConfig cfg;
  cfg.fault = plan;
  auto r = m.run(cfg);
  EXPECT_TRUE(r.completed);
  return r.cycles;
}

TEST(FaultPlan, DefaultIsDisabledAndChaosIsNot) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_TRUE(FaultPlan::chaos(1).enabled());
  EXPECT_FALSE(FaultPlan::chaos(1).describe().empty());
  EXPECT_EQ(FaultPlan::chaos(7), FaultPlan::chaos(7));
}

TEST(FaultEngine, StreamsAreDeterministicPerSeed) {
  FaultPlan plan = FaultPlan::chaos(42);
  FaultEngine a(plan, 4);
  FaultEngine b(plan, 4);
  std::uint64_t fired = 0;
  for (int i = 0; i < 2000; ++i) {
    const Cycle va = a.barrier_spike(1);
    EXPECT_EQ(va, b.barrier_spike(1));
    EXPECT_EQ(a.coh_delay(2), b.coh_delay(2));
    EXPECT_EQ(a.evict(3), b.evict(3));
    if (va != 0) ++fired;
  }
  EXPECT_GT(fired, 0u) << "chaos plan never fired a barrier spike";
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_GT(a.injected(), 0u);
}

TEST(FaultEngine, CoresHaveIndependentStreams) {
  FaultPlan plan = FaultPlan::chaos(42);
  FaultEngine a(plan, 2);
  FaultEngine b(plan, 2);
  // Interleaving core 1 rolls into engine b must not change core 0's
  // schedule: streams are per-core, not shared.
  for (int i = 0; i < 500; ++i) {
    (void)b.coh_delay(1);
    EXPECT_EQ(a.barrier_spike(0), b.barrier_spike(0)) << "roll " << i;
  }
}

TEST(FaultEngine, CertainProbabilityAlwaysFires) {
  FaultPlan plan;
  plan.sb_stall_pm = 1000;
  plan.sb_stall_cycles = 17;
  FaultEngine e(plan, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(e.sb_stall(0), 17u);
}

TEST(FaultEngine, RejectsMalformedProbability) {
  FaultPlan plan;
  plan.evict_pm = 1001;  // > 1000‰ is a config bug, not a legal plan
  EXPECT_DEATH(FaultEngine(plan, 1), "");
}

TEST(FaultMachine, DisabledPlanIsBitIdenticalToNoPlan) {
  const Cycle clean = run_with(nullptr, store_loop, 200);
  FaultPlan disabled;  // all rates zero
  EXPECT_EQ(run_with(&disabled, store_loop, 200), clean);
}

TEST(FaultMachine, SamePlanSameCycles) {
  FaultPlan plan = FaultPlan::chaos(9);
  const Cycle first = run_with(&plan, store_loop, 200);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(run_with(&plan, store_loop, 200), first);
}

TEST(FaultMachine, BarrierSpikesSlowBarrierHeavyCode) {
  auto make = +[](int iters) {
    Asm a;
    a.movi(X0, 0x1000).movi(X2, 0);
    a.label("loop");
    a.str(X2, X0, 0);
    a.dsb_full();
    a.addi(X2, X2, 1);
    a.cmpi(X2, iters);
    a.blt("loop");
    a.halt();
    return a.take("dsb-loop");
  };
  const Cycle clean = run_with(nullptr, make, 20);
  FaultPlan plan;
  plan.barrier_spike_pm = 1000;
  plan.barrier_spike_cycles = 400;
  EXPECT_GT(run_with(&plan, make, 20), clean + 20 * 400 / 2);
}

TEST(FaultMachine, DrainStallsSlowStores) {
  auto make = +[](int iters) {
    Asm a;
    a.movi(X0, 0x1000).movi(X2, 0);
    a.label("loop");
    a.str(X2, X0, 0);
    a.dsb_full();  // forces each drain onto the critical path
    a.addi(X2, X2, 1);
    a.cmpi(X2, iters);
    a.blt("loop");
    a.halt();
    return a.take("drain-loop");
  };
  const Cycle clean = run_with(nullptr, make, 20);
  FaultPlan plan;
  plan.sb_stall_pm = 500;  // not 1000: a certain re-stall would livelock
  plan.sb_stall_cycles = 64;
  EXPECT_GT(run_with(&plan, make, 20), clean);
}

TEST(FaultMachine, CoherenceDelaysSlowMisses) {
  auto make = +[](int iters) {
    Asm a;
    a.movi(X0, 0x1000).movi(X2, 0).movi(X3, 0);
    a.label("loop");
    a.ldr(X1, X0, 0);
    a.add(X3, X3, X1);   // dependent use: the miss is on the critical path
    a.addi(X0, X0, 64);  // new line every iteration: all misses
    a.addi(X2, X2, 1);
    a.cmpi(X2, iters);
    a.blt("loop");
    a.halt();
    return a.take("miss-loop");
  };
  const Cycle clean = run_with(nullptr, make, 50);
  FaultPlan plan;
  plan.coh_delay_pm = 1000;
  plan.coh_delay_cycles = 200;
  EXPECT_GT(run_with(&plan, make, 50), clean + 50 * 200 / 2);
}

TEST(FaultMachine, ForcedEvictionsTurnHitsIntoMisses) {
  auto make = +[](int iters) {
    Asm a;
    a.movi(X0, 0x1000).movi(X2, 0);
    a.ldr(X1, X0, 0);  // fill once; every later load is a clean-sharer hit
    a.label("loop");
    a.ldr(X1, X0, 0);
    a.addi(X2, X2, 1);
    a.cmpi(X2, iters);
    a.blt("loop");
    a.halt();
    return a.take("hit-loop");
  };
  Machine clean_m(rpi4(), 1u << 20);
  Program p1 = make(100);
  clean_m.load_program(0, p1);
  auto clean = clean_m.run({});
  ASSERT_TRUE(clean.completed);

  FaultPlan plan;
  plan.evict_pm = 1000;
  Machine m(rpi4(), 1u << 20);
  Program p2 = make(100);
  m.load_program(0, p2);
  RunConfig cfg;
  cfg.fault = &plan;
  auto faulted = m.run(cfg);
  ASSERT_TRUE(faulted.completed);
  EXPECT_GT(faulted.cycles, clean.cycles);
  EXPECT_GT(faulted.mem.gets_local + faulted.mem.gets_remote +
                faulted.mem.mem_fills,
            clean.mem.gets_local + clean.mem.gets_remote + clean.mem.mem_fills);
}

TEST(FaultMachine, DuplicatedInvalidationsAreIdempotent) {
  // Producer/consumer over one line: with every invalidation delivered
  // twice, the final architectural state must be unchanged.
  auto build = [](const FaultPlan* plan, std::uint64_t& final_val) {
    Machine m(rpi4(), 1u << 20);
    Asm pa;
    pa.movi(X0, 0x1000).movi(X2, 0);
    pa.label("loop");
    pa.addi(X2, X2, 1);
    pa.str(X2, X0, 0);
    pa.dsb_full();
    pa.cmpi(X2, 50);
    pa.blt("loop");
    pa.halt();
    Program prod = pa.take("dup-prod");
    Asm ca;
    ca.movi(X0, 0x1000);
    ca.label("poll");
    ca.ldr(X1, X0, 0);
    ca.cmpi(X1, 50);
    ca.blt("poll");
    ca.halt();
    Program cons = ca.take("dup-cons");
    m.load_program(0, prod);
    m.load_program(1, cons);
    RunConfig cfg;
    cfg.fault = plan;
    auto r = m.run(cfg);
    EXPECT_TRUE(r.completed);
    final_val = m.mem().peek(0x1000);
    return r.cycles;
  };
  std::uint64_t clean_val = 0, faulted_val = 0;
  build(nullptr, clean_val);
  FaultPlan plan;
  plan.coh_duplicate_pm = 1000;
  build(&plan, faulted_val);
  EXPECT_EQ(clean_val, 50u);
  EXPECT_EQ(faulted_val, 50u);
}

TEST(FaultGlobal, GlobalPlanAppliesAndClears) {
  ASSERT_EQ(fault::global_fault_plan(), nullptr);
  const Cycle clean = run_with(nullptr, store_loop, 200);

  FaultPlan plan;
  plan.sb_stall_pm = 500;
  plan.sb_stall_cycles = 64;
  fault::set_global_fault_plan(plan);
  ASSERT_NE(fault::global_fault_plan(), nullptr);
  EXPECT_EQ(*fault::global_fault_plan(), plan);
  const Cycle faulted = run_with(nullptr, store_loop, 200);
  EXPECT_GT(faulted, clean);

  // An explicit per-run plan outranks the global one.
  FaultPlan disabled;
  EXPECT_EQ(run_with(&disabled, store_loop, 200), clean);

  fault::clear_global_fault_plan();
  ASSERT_EQ(fault::global_fault_plan(), nullptr);
  EXPECT_EQ(run_with(nullptr, store_loop, 200), clean);
}

}  // namespace
}  // namespace armbar::sim

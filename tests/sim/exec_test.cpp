// Functional execution tests: single-core programs must compute correct
// architectural results regardless of the timing model.
#include <gtest/gtest.h>

#include "sim/machine.hpp"

namespace armbar::sim {
namespace {

Machine small_machine() { return Machine(rpi4(), 1u << 20); }

TEST(Exec, MoviAndHalt) {
  Machine m = small_machine();
  Asm a;
  a.movi(X0, 1234).halt();
  Program p = a.take("t");
  m.load_program(0, p);
  auto r = m.run({});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(m.core(0).reg(X0), 1234u);
}

TEST(Exec, AluOps) {
  Machine m = small_machine();
  Asm a;
  a.movi(X0, 12).movi(X1, 5);
  a.add(X2, X0, X1);    // 17
  a.sub(X3, X0, X1);    // 7
  a.and_(X4, X0, X1);   // 4
  a.orr(X5, X0, X1);    // 13
  a.eor(X6, X0, X1);    // 9
  a.lsli(X7, X0, 2);    // 48
  a.lsri(X8, X0, 2);    // 3
  a.mul(X9, X0, X1);    // 60
  a.halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.core(0).reg(X2), 17u);
  EXPECT_EQ(m.core(0).reg(X3), 7u);
  EXPECT_EQ(m.core(0).reg(X4), 4u);
  EXPECT_EQ(m.core(0).reg(X5), 13u);
  EXPECT_EQ(m.core(0).reg(X6), 9u);
  EXPECT_EQ(m.core(0).reg(X7), 48u);
  EXPECT_EQ(m.core(0).reg(X8), 3u);
  EXPECT_EQ(m.core(0).reg(X9), 60u);
}

TEST(Exec, XzrReadsZeroWritesDiscarded) {
  Machine m = small_machine();
  Asm a;
  a.movi(XZR, 99).add(X0, XZR, XZR).halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.core(0).reg(X0), 0u);
}

TEST(Exec, CountedLoop) {
  Machine m = small_machine();
  Asm a;
  a.movi(X0, 0);
  a.label("loop");
  a.addi(X0, X0, 1);
  a.cmpi(X0, 10);
  a.blt("loop");
  a.halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.core(0).reg(X0), 10u);
}

TEST(Exec, StoreThenLoadRoundTrips) {
  Machine m = small_machine();
  Asm a;
  a.movi(X0, 0x1000).movi(X1, 0xdeadbeef);
  a.str(X1, X0, 0);
  a.ldr(X2, X0, 0);
  a.halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.core(0).reg(X2), 0xdeadbeefu);
}

TEST(Exec, StoreDrainsToMemoryAfterHalt) {
  Machine m = small_machine();
  Asm a;
  a.movi(X0, 0x2000).movi(X1, 77).str(X1, X0, 0).halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.mem().peek(0x2000), 77u);
}

TEST(Exec, IndexedAddressing) {
  Machine m = small_machine();
  m.mem().poke(0x3010, 4242);
  Asm a;
  a.movi(X0, 0x3000).movi(X1, 0x10);
  a.ldr_idx(X2, X0, X1);
  a.movi(X3, 555).movi(X4, 0x20);
  a.str_idx(X3, X0, X4);
  a.halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.core(0).reg(X2), 4242u);
  EXPECT_EQ(m.mem().peek(0x3020), 555u);
}

TEST(Exec, ConditionalBranchesAllDirections) {
  Machine m = small_machine();
  Asm a;
  // X1 collects a bitmask of taken checks.
  a.movi(X1, 0);
  a.movi(X0, 5);
  a.cmpi(X0, 5).beq("eq_ok").b("fail");
  a.label("eq_ok").orri(X1, X1, 1);
  a.cmpi(X0, 6).bne("ne_ok").b("fail");
  a.label("ne_ok").orri(X1, X1, 2);
  a.cmpi(X0, 6).blt("lt_ok").b("fail");
  a.label("lt_ok").orri(X1, X1, 4);
  a.cmpi(X0, 5).ble("le_ok").b("fail");
  a.label("le_ok").orri(X1, X1, 8);
  a.cmpi(X0, 4).bgt("gt_ok").b("fail");
  a.label("gt_ok").orri(X1, X1, 16);
  a.cmpi(X0, 5).bge("ge_ok").b("fail");
  a.label("ge_ok").orri(X1, X1, 32);
  a.movi(X2, 0).cbz(X2, "cbz_ok").b("fail");
  a.label("cbz_ok").orri(X1, X1, 64);
  a.cbnz(X0, "cbnz_ok").b("fail");
  a.label("cbnz_ok").orri(X1, X1, 128);
  a.halt();
  a.label("fail").movi(X1, 0).halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.core(0).reg(X1), 255u);
}

TEST(Exec, LoadFeedsDependentAlu) {
  Machine m = small_machine();
  m.mem().poke(0x4000, 21);
  Asm a;
  a.movi(X0, 0x4000);
  a.ldr(X1, X0, 0);
  a.add(X2, X1, X1);  // depends on the load value
  a.halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.core(0).reg(X2), 42u);
}

TEST(Exec, SpinOnFlagSetByOtherCore) {
  Machine m = small_machine();
  // Core 1 stores 7 to the flag; core 0 spins until it sees a nonzero flag.
  Asm a0;
  a0.movi(X0, 0x5000);
  a0.label("spin");
  a0.ldr(X1, X0, 0);
  a0.cbz(X1, "spin");
  a0.halt();
  Program p0 = a0.take("consumer");

  Asm a1;
  a1.movi(X0, 0x5000).movi(X1, 7);
  a1.nops(50);  // give the consumer time to start spinning
  a1.str(X1, X0, 0);
  a1.halt();
  Program p1 = a1.take("producer");

  m.load_program(0, p0);
  m.load_program(1, p1);
  ASSERT_TRUE(m.run({.max_cycles = 1'000'000}).completed);
  EXPECT_EQ(m.core(0).reg(X1), 7u);
}

TEST(Exec, WfeWakesOnInvalidation) {
  Machine m = small_machine();
  Asm a0;
  a0.movi(X0, 0x6000);
  a0.label("spin");
  a0.ldr(X1, X0, 0);
  a0.cbnz(X1, "out");
  a0.wfe();
  a0.b("spin");
  a0.label("out").halt();
  Program p0 = a0.take("waiter");

  Asm a1;
  a1.movi(X0, 0x6000).movi(X1, 1);
  a1.nops(2000);  // much longer than a few spin iterations
  a1.str(X1, X0, 0);
  a1.halt();
  Program p1 = a1.take("setter");

  m.load_program(0, p0);
  m.load_program(1, p1);
  auto r = m.run({.max_cycles = 1'000'000});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(m.core(0).reg(X1), 1u);
  EXPECT_GE(r.cores[0].wfe_parks, 1u);
}

TEST(Exec, LdxrStxrSucceedsUncontended) {
  Machine m = small_machine();
  m.mem().poke(0x7000, 10);
  Asm a;
  a.movi(X0, 0x7000);
  a.label("retry");
  a.ldxr(X1, X0);
  a.addi(X1, X1, 1);
  a.stxr(X2, X1, X0);
  a.cbnz(X2, "retry");
  a.halt();
  Program p = a.take("t");
  m.load_program(0, p);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.mem().peek(0x7000), 11u);
}

TEST(Exec, AtomicIncrementFromManyCores) {
  Machine m(rpi4(), 1u << 20);
  // All four cores atomically increment the same counter 100 times.
  Asm a;
  a.movi(X0, 0x8000).movi(X3, 0);
  a.label("loop");
  a.label("retry");
  a.ldxr(X1, X0);
  a.addi(X1, X1, 1);
  a.stxr(X2, X1, X0);
  a.cbnz(X2, "retry");
  a.addi(X3, X3, 1);
  a.cmpi(X3, 100);
  a.blt("loop");
  a.halt();
  Program p = a.take("inc");
  for (CoreId c = 0; c < 4; ++c) m.load_program(c, p);
  ASSERT_TRUE(m.run({.max_cycles = 10'000'000}).completed);
  EXPECT_EQ(m.mem().peek(0x8000), 400u);
}

TEST(Exec, HaltedCoreDrainsItsStoreBuffer) {
  Machine m = small_machine();
  Asm a;
  a.movi(X0, 0x9000).movi(X1, 3).str(X1, X0, 0).halt();
  Program p = a.take("t");
  m.load_program(0, p);
  // Make the line remote-owned first so the drain is slow.
  m.mem().poke(0x9000, 0);
  ASSERT_TRUE(m.run({}).completed);
  EXPECT_EQ(m.mem().peek(0x9000), 3u);
}

TEST(Exec, HaltedCoreDrainsStoreUngatedInItsHaltStep) {
  // HALT waits out pending branches, so the step that commits the branch
  // gating this store also issues the HALT, after that step's pump passed
  // the store over. Its value_ready and drain_at are long past, so no
  // store-buffer event wakes the halted core again; it must still drain,
  // on every preset, instead of tripping the run loop's deadlock check.
  for (const PlatformSpec& spec : all_platforms()) {
    Machine m(spec, 1u << 20);
    Asm a;
    a.movi(X0, 0x1000).movi(X2, 2);
    a.ldr(X3, X0, 0);    // cold miss: the branch below resolves late
    a.cbnz(X3, "done");  // forward, so predicted (and actually) not taken
    a.str(X2, X0, 0);    // speculative store, gated on that branch
    a.label("done");
    a.halt();
    m.load_program(0, a.take("halt-ungates-store"));
    ASSERT_TRUE(m.run({}).completed) << spec.name;
    EXPECT_EQ(m.mem().peek(0x1000), 2u) << spec.name;
  }
}

}  // namespace
}  // namespace armbar::sim

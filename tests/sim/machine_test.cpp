// Machine-level behaviour: determinism, multi-core scheduling, platform
// presets, run-result accounting.
#include <gtest/gtest.h>

#include "sim/machine.hpp"

namespace armbar::sim {
namespace {

TEST(Platform, PresetsMatchTable2) {
  auto all = all_platforms();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name, "kunpeng916");
  EXPECT_EQ(all[0].total_cores(), 64u);
  EXPECT_EQ(all[0].nodes, 2u);
  EXPECT_DOUBLE_EQ(all[0].freq_ghz, 2.4);
  EXPECT_EQ(all[1].name, "kirin960");
  EXPECT_EQ(all[2].name, "kirin970");
  EXPECT_EQ(all[3].name, "rpi4");
  EXPECT_EQ(all[3].total_cores(), 4u);
}

TEST(Platform, NodeOfMapsCoresToNodes) {
  const PlatformSpec kp = kunpeng916();
  EXPECT_EQ(kp.node_of(0), 0u);
  EXPECT_EQ(kp.node_of(31), 0u);
  EXPECT_EQ(kp.node_of(32), 1u);
  EXPECT_EQ(kp.node_of(63), 1u);
}

TEST(Platform, ByNameLooksUp) {
  EXPECT_EQ(platform_by_name("kirin970").name, "kirin970");
  EXPECT_DEATH(platform_by_name("nonexistent"), "unknown platform");
}

TEST(Platform, ServerBusCostlierThanMobile) {
  // Observation 4 encoded in the presets themselves.
  const auto server = kunpeng916();
  const auto mobile = kirin960();
  EXPECT_GT(server.lat.bus_sync, 5 * mobile.lat.bus_sync);
  EXPECT_GT(server.lat.inv_local, 3 * mobile.lat.inv_local);
}

TEST(Machine, DeterministicCycleCounts) {
  auto build = [] {
    Asm a;
    a.movi(X0, 0x1000).movi(X2, 0);
    a.label("loop");
    a.str(X2, X0, 0);
    a.addi(X0, X0, 64);
    a.addi(X2, X2, 1);
    a.cmpi(X2, 200);
    a.blt("loop");
    a.halt();
    return a.take("t");
  };
  Cycle first = 0;
  for (int trial = 0; trial < 3; ++trial) {
    Machine m(kunpeng916(), 1u << 20);
    Program p = build();
    m.load_program(0, p);
    m.load_program(1, p);
    auto r = m.run({});
    ASSERT_TRUE(r.completed);
    if (trial == 0)
      first = r.cycles;
    else
      EXPECT_EQ(r.cycles, first);
  }
}

TEST(Machine, CoresWithoutProgramsStayIdle) {
  Machine m(kunpeng916(), 1u << 20);
  Asm a;
  a.movi(X0, 7).halt();
  Program p = a.take("t");
  m.load_program(5, p);
  auto r = m.run({});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.cores.size(), 1u);  // only the active core reports stats
  EXPECT_EQ(m.core(5).reg(X0), 7u);
}

TEST(Machine, TimeoutReportsIncomplete) {
  Machine m(rpi4(), 1u << 20);
  Asm a;
  a.label("forever").b("forever");
  Program p = a.take("t");
  m.load_program(0, p);
  auto r = m.run({.max_cycles = 5000});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.cycles, 5000u);
}

TEST(Machine, RunTwiceAborts) {
  Machine m(rpi4(), 1u << 20);
  Asm a;
  a.halt();
  Program p = a.take("t");
  m.load_program(0, p);
  (void)m.run({});
  EXPECT_DEATH((void)m.run({}), "only be called once");
}

TEST(Machine, StatsAccumulatePerCore) {
  Machine m(rpi4(), 1u << 20);
  Asm a;
  a.movi(X0, 0x1000);
  a.ldr(X1, X0, 0);
  a.str(X1, X0, 64);
  a.dmb_full();
  a.halt();
  Program p = a.take("t");
  m.load_program(0, p);
  auto r = m.run({});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.cores[0].loads, 1u);
  EXPECT_EQ(r.cores[0].stores, 1u);
  EXPECT_EQ(r.cores[0].barriers, 1u);
  EXPECT_GE(r.cores[0].instructions, 5u);
}

TEST(Machine, ThroughputHelper) {
  // 100 events in 1000 cycles at 2 GHz = 200M events/s.
  EXPECT_DOUBLE_EQ(RunResult::throughput_per_sec(100, 1000, 2.0), 2e8);
  EXPECT_DOUBLE_EQ(RunResult::throughput_per_sec(100, 0, 2.0), 0.0);
}

TEST(Machine, ThroughputScalesBeforeDividing) {
  // Pinned against the scale-then-divide formula: dividing events/cycles
  // first rounds the quotient to a double ULP and the low digits never
  // come back once multiplied by ~1e9.
  EXPECT_DOUBLE_EQ(RunResult::throughput_per_sec(7, 3, 2.4),
                   7.0 * 2.4e9 / 3.0);
  EXPECT_DOUBLE_EQ(RunResult::throughput_per_sec(1, 3, 1.0), 1e9 / 3.0);
  // A case where the two orderings genuinely differ in the last bits.
  const std::uint64_t events = 999'999'937;  // prime
  const Cycle cycles = 1'000'003;
  const double scaled_first =
      static_cast<double>(events) * 2.4e9 / static_cast<double>(cycles);
  EXPECT_DOUBLE_EQ(RunResult::throughput_per_sec(events, cycles, 2.4),
                   scaled_first);
}

TEST(Machine, ProgramHandleMatchesByValueLoad) {
  // The two load_program spellings — pass a Program (machine predecodes and
  // returns the handle) or pass a predecoded handle — must be
  // indistinguishable in simulated timing, and one handle must be reusable
  // across machines.
  auto build = [] {
    Asm a;
    a.movi(X0, 0x2000).movi(X2, 0);
    a.label("loop");
    a.str(X2, X0, 0);
    a.dmb_full();
    a.addi(X2, X2, 1);
    a.cmpi(X2, 50);
    a.blt("loop");
    a.halt();
    return a.take("t");
  };

  Machine by_value(kunpeng916(), 1u << 20);
  ProgramHandle h = by_value.load_program(0, build());
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->size(), build().size());
  auto r_value = by_value.run({.max_cycles = 10'000'000});

  Machine by_handle(kunpeng916(), 1u << 20);
  by_handle.load_program(0, h);  // same predecode, different machine
  auto r_handle = by_handle.run({.max_cycles = 10'000'000});

  ASSERT_TRUE(r_value.completed);
  ASSERT_TRUE(r_handle.completed);
  EXPECT_EQ(r_value.cycles, r_handle.cycles);
  EXPECT_EQ(r_value.cores[0].instructions, r_handle.cores[0].instructions);
  EXPECT_EQ(r_value.cores[0].barriers, r_handle.cores[0].barriers);
}

TEST(Machine, RunConfigMaxCyclesTruncates) {
  Asm a;
  a.movi(X0, 0);
  a.label("forever");
  a.addi(X0, X0, 1);
  a.b("forever");
  Program p = a.take("spin");
  Machine m(rpi4(), 1u << 20);
  m.load_program(0, p);
  RunConfig cfg;
  cfg.max_cycles = 5000;
  auto r = m.run(cfg);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.cycles, cfg.max_cycles);
}

TEST(Machine, RunConfigAttachesTracer) {
  // RunConfig.tracer routes through Machine::set_tracer (the single attach
  // point — Core/MemorySystem setters are private); timing is unaffected.
  auto build = [] {
    Asm a;
    a.movi(X0, 0x3000);
    a.str(X0, X0, 0);
    a.dmb_full();
    a.halt();
    return a.take("t");
  };
  Program p1 = build(), p2 = build();

  Machine plain(kunpeng916(), 1u << 20);
  plain.load_program(0, p1);
  auto r_plain = plain.run({});

  trace::Tracer tracer(4096);
  Machine traced(kunpeng916(), 1u << 20);
  traced.load_program(0, p2);
  RunConfig cfg;
  cfg.tracer = &tracer;
  auto r_traced = traced.run(cfg);

  ASSERT_TRUE(r_traced.completed);
  EXPECT_GT(tracer.emitted(), 0u);
  EXPECT_EQ(r_plain.cycles, r_traced.cycles);  // recording, not perturbing
}

TEST(Machine, SixtyFourCoresAllRun) {
  Machine m(kunpeng916(), 16u << 20);
  Asm a;
  a.movi(X0, 1).halt();
  Program p = a.take("t");
  for (CoreId c = 0; c < 64; ++c) m.load_program(c, p);
  auto r = m.run({});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.cores.size(), 64u);
  for (CoreId c = 0; c < 64; ++c) EXPECT_EQ(m.core(c).reg(X0), 1u);
}

TEST(Machine, MessagePassingAcrossAllCorePairs) {
  // Ring relay: core i waits for token i, then publishes token i+1.
  // Exercises scheduling + coherence across every core of the machine.
  const PlatformSpec spec = rpi4();
  Machine m(spec, 1u << 20);
  const Addr token = 0x1000;
  std::vector<Program> progs;
  progs.reserve(spec.total_cores());
  for (CoreId c = 0; c < spec.total_cores(); ++c) {
    Asm a;
    a.movi(X0, token);
    a.label("spin");
    a.ldr(X1, X0, 0);
    a.cmpi(X1, c + 1);
    a.blt("spin");
    a.movi(X2, c + 2);
    a.str(X2, X0, 0);
    a.halt();
    progs.push_back(a.take("relay" + std::to_string(c)));
  }
  for (CoreId c = 0; c < spec.total_cores(); ++c) m.load_program(c, progs[c]);
  m.mem().poke(token, 1);
  auto r = m.run({.max_cycles = 10'000'000});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(m.mem().peek(token), spec.total_cores() + 1);
}

}  // namespace
}  // namespace armbar::sim

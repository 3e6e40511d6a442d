// Exactness of event-driven stepping: a core is stepped only at cycles
// where its step can change something, and that must never move a
// simulated value.
//   * Core-local runs and store-gate waits: an untraced core issues its
//     NOPs, ALU ops, jumps and conditional branches ahead of the sweep up to
//     its event horizon, and a store behind an unresolved DMB st gate sleeps
//     to that horizon; with a tracer attached every instruction issues one
//     per step and the gate is retried every cycle, so the traced run is the
//     per-cycle reference.
//   * Due sweep: only the cores due at a cycle are stepped, in id order,
//     and a store's invalidation that wakes WFE-parked cores on both sides
//     of the storer keeps the cycle counts the full walk over every live
//     core produced.
//   * Scheduler wheel: a wake the invalidate hook lands on the cycle after
//     the sweep goes into the scheduler's wheel, and a later, earlier wake
//     takes the core back out; both keep the heap-only scheduler's values.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "trace/trace.hpp"

namespace armbar::sim {
namespace {

constexpr Addr kData = 0x1000;

struct Case {
  const char* name;
  std::vector<Program> programs;  ///< one per core, from core 0
  Cycle max_cycles = 500'000'000;
};

// A NOP run spanning a store-buffer drain retire and a DMB st gate opening,
// while core 1 steals the line the run's core owns, so invalidations land
// mid-run and a later WFE reads the event they left.
Case drain_and_gate_case() {
  Asm a;
  a.movi(X0, kData).movi(X1, 7);
  a.str(X1, X0, 0);
  a.str(X1, X0, 64);
  a.dmb_st();
  a.nops(600);
  a.str(X1, X0, 128);  // behind the gate
  a.nops(300);
  a.wfe();
  a.ldr(X2, X0, 0);
  a.halt();
  Asm b;
  b.movi(X0, kData).movi(X3, 9);
  b.nops(40);
  b.str(X3, X0, 0);
  b.nops(200);
  b.str(X3, X0, 64);
  b.halt();
  return {"drain_and_gate", {a.take("drain-gate"), b.take("stealer")}};
}

// NOP runs issued past unresolved branches. A correctly predicted branch
// commits mid-run and ungates a buffered store, whose drain a DSB then
// waits for; a mispredicted one squashes mid-run, popping a speculative
// store whose value was still in flight.
Case squash_case() {
  Asm a;
  a.movi(X0, kData).movi(X5, 3);
  a.ldr(X1, X0, 256);    // misses: the branch below resolves late
  a.cbnz(X1, "skip");    // X1 == 0: not taken, predicted not taken
  a.str(X5, X0, 320);    // gated on that branch until it commits
  a.nops(400);
  a.dsb_full();
  a.label("skip");
  a.ldr(X2, X0, 384);
  a.ldr(X7, X0, 512);    // completes after X2
  a.cbz(X2, "taken");    // X2 == 0: taken, predicted not taken -> squash
  a.str(X7, X0, 448);    // speculative, popped by the squash
  a.nops(400);
  a.movi(X6, 1);
  a.label("taken");
  a.nops(50);
  a.halt();
  return {"squash", {a.take("squash")}};
}

// A RunConfig::max_cycles cap inside a NOP run: the run stops incomplete at
// the same instruction count as per-cycle issue.
Case cap_case() {
  Asm a;
  a.movi(X0, kData).movi(X1, 5);
  a.str(X1, X0, 0);
  a.nops(1000);
  a.halt();
  Case c{"cycle_cap", {a.take("capped")}};
  c.max_cycles = 517;
  return c;
}

// A store behind a DMB st gate whose watched drains are still outstanding,
// while core 1 steals one watched line and shares the other, so the drains
// wait on coherence transfers and the gate wait spans them.
Case gate_steal_case() {
  Asm a;
  a.movi(X0, kData).movi(X1, 7);
  a.str(X1, X0, 0);
  a.str(X1, X0, 64);
  a.dmb_st();
  a.str(X1, X0, 128);  // behind the gate, its drains outstanding
  a.addi(X1, X1, 1);
  a.str(X1, X0, 192);
  a.halt();
  Asm b;
  b.movi(X0, kData).movi(X3, 9);
  b.str(X3, X0, 0);
  b.ldr(X4, X0, 64);
  b.str(X3, X0, 64);
  b.halt();
  return {"gate_steal", {a.take("gated"), b.take("stealer")}};
}

// A DMB st behind a pending one: the second serializes on the first's
// unresolved gate, then gates the store after it.
Case dmb_st_chain_case() {
  Asm a;
  a.movi(X0, kData).movi(X1, 7);
  a.str(X1, X0, 0);
  a.str(X1, X0, 64);
  a.dmb_st();
  a.dmb_st();          // behind the pending gate
  a.str(X1, X0, 128);
  a.halt();
  return {"dmb_st_chain", {a.take("dmb-st-chain")}};
}

// A correctly predicted branch commits during an ALU run issued past it,
// and a second one commits during a store's gate wait: the gate watches a
// store whose drain waits for a missing load, so it resolves late.
Case commit_in_run_and_gate_wait_case() {
  Asm a;
  a.movi(X0, kData).movi(X5, 3);
  a.ldr(X1, X0, 256);    // misses: the branch below resolves late
  a.cbnz(X1, "skip");    // X1 == 0: not taken, predicted not taken
  a.movi(X2, 0);
  a.label("loop");       // the run: issued past the pending branch
  a.addi(X2, X2, 1);
  a.cmpi(X2, 100);
  a.blt("loop");
  a.ldr(X7, X0, 512);    // misses: the store below drains late
  a.str(X7, X0, 0);
  a.dmb_st();
  a.ldr(X8, X0, 320);    // misses
  a.cbnz(X8, "skip");    // commits while the store below waits
  a.str(X5, X0, 64);     // behind the unresolved gate
  a.label("skip");
  a.halt();
  return {"commit_in_run_and_gate_wait", {a.take("commit")}};
}

// As above, but both branches are mispredicted: the first squashes the ALU
// run issued past it, the second squashes during the gate wait of a
// wrong-path store.
Case squash_in_run_and_gate_wait_case() {
  Asm a;
  a.movi(X0, kData).movi(X5, 3);
  a.ldr(X1, X0, 256);    // misses: the branch below resolves late
  a.cbz(X1, "first");    // X1 == 0: taken, predicted not taken -> squash
  a.movi(X2, 0);
  a.label("loop");       // the wrong-path run
  a.addi(X2, X2, 1);
  a.cmpi(X2, 200);
  a.blt("loop");
  a.label("first");
  a.ldr(X7, X0, 512);    // misses: the store below drains late
  a.str(X7, X0, 0);
  a.dmb_st();
  a.ldr(X8, X0, 320);    // misses
  a.cbz(X8, "second");   // mispredicted again
  a.str(X5, X0, 64);     // wrong path, behind the unresolved gate
  a.label("second");
  a.movi(X6, 1);
  a.halt();
  return {"squash_in_run_and_gate_wait", {a.take("squash-gate")}};
}

// A run over ALU ops, a jump, an operand stall on a load result and a
// resolved conditional branch, ending at a load, while a buffered store's
// drain sets the horizon.
Case alu_run_case() {
  Asm a;
  a.movi(X0, kData).movi(X9, 5);
  a.str(X9, X0, 448);
  a.ldr(X1, X0, 0);      // misses: X1 is ready late
  a.movi(X2, 3);
  a.addi(X2, X2, 4);
  a.b("next");
  a.movi(X2, 99);        // jumped over
  a.label("next");
  a.add(X3, X1, X2);     // operand stall on the load result
  a.cmpi(X3, 7);
  a.bne("end");          // X3 == 7: not taken, resolved at issue
  a.addi(X4, X3, 1);
  a.ldr(X5, X0, 64);     // ends the run
  a.addi(X6, X5, 2);
  a.label("end");
  a.halt();
  return {"alu_run", {a.take("alu-run")}};
}

// ALU ops behind a blocking barrier and behind a WFE park: a run must not
// issue them before the barrier completes or the park times out.
Case barrier_and_park_case() {
  Asm a;
  a.movi(X0, kData).movi(X1, 7);
  a.str(X1, X0, 0);      // the DMB full waits for its drain
  a.dmb_full();
  a.addi(X2, X1, 1);     // held until the barrier completes
  a.addi(X3, X2, 1);
  a.wfe();               // no event pending: parks until the timeout
  a.addi(X4, X3, 1);     // held until the park ends
  a.addi(X5, X4, 1);
  a.halt();
  return {"barrier_and_park", {a.take("barrier-park")}};
}

// A RunConfig::max_cycles cap inside a store's gate wait.
Case gate_wait_cap_case() {
  Asm a;
  a.movi(X0, kData).movi(X1, 5);
  a.str(X1, X0, 0);
  a.dmb_st();
  a.str(X1, X0, 64);     // behind the gate until the first store drains
  a.halt();
  Case c{"gate_wait_cap", {a.take("gate-capped")}};
  c.max_cycles = 30;
  return c;
}

// A RunConfig::max_cycles cap inside an ALU run.
Case run_cap_case() {
  Asm a;
  a.movi(X2, 0);
  a.label("loop");
  a.addi(X2, X2, 1);
  a.cmpi(X2, 1000);
  a.blt("loop");
  a.halt();
  Case c{"run_cap", {a.take("run-capped")}};
  c.max_cycles = 517;
  return c;
}

std::vector<Case> all_cases() {
  return {drain_and_gate_case(),
          squash_case(),
          cap_case(),
          gate_steal_case(),
          dmb_st_chain_case(),
          commit_in_run_and_gate_wait_case(),
          squash_in_run_and_gate_wait_case(),
          alu_run_case(),
          barrier_and_park_case(),
          gate_wait_cap_case(),
          run_cap_case()};
}

/// Everything a run produces: RunResult (cycles, every CoreStats field,
/// MemStats), the final registers of every core and the words the cases
/// touch. Rendered as text so a mismatch reads as a diff.
std::string run_and_describe(const PlatformSpec& spec, const Case& c,
                             bool traced) {
  Machine m(spec, 1u << 20);
  for (CoreId core = 0; core < c.programs.size(); ++core)
    m.load_program(core, c.programs[core]);
  trace::Tracer tracer;
  RunConfig cfg;
  cfg.max_cycles = c.max_cycles;
  cfg.verify_every = 1;  // a missed dirty mark shows as a stale horizon
  if (traced) cfg.tracer = &tracer;
  const RunResult r = m.run(cfg);

  std::ostringstream os;
  os << "completed=" << r.completed << " cycles=" << r.cycles << "\n";
  for (std::size_t i = 0; i < r.cores.size(); ++i) {
    const CoreStats& s = r.cores[i];
    os << "core " << i << ": instructions=" << s.instructions
       << " loads=" << s.loads << " stores=" << s.stores
       << " load_misses=" << s.load_misses << " barriers=" << s.barriers
       << " squashes=" << s.squashes << " wfe_parks=" << s.wfe_parks
       << " stxr_failures=" << s.stxr_failures
       << " sb_retired=" << s.sb_retired << " halted_at=" << s.halted_at
       << " pc=" << m.core(static_cast<CoreId>(i)).pc() << "\n  stalls";
    for (int k = 0; k < static_cast<int>(StallCause::kCount); ++k)
      os << " " << to_string(static_cast<StallCause>(k)) << "="
         << s.stall_cycles[k];
    os << "\n  regs";
    for (int reg = 0; reg < XZR; ++reg)
      os << " " << m.core(static_cast<CoreId>(i)).reg(static_cast<Reg>(reg));
    os << "\n";
  }
  const MemStats& ms = r.mem;
  os << "mem: gets_local=" << ms.gets_local << " gets_remote=" << ms.gets_remote
     << " getm_local=" << ms.getm_local << " getm_remote=" << ms.getm_remote
     << " mem_fills=" << ms.mem_fills << " upgrades=" << ms.upgrades
     << " hits=" << ms.hits << "\n  words";
  for (Addr off = 0; off <= 512; off += 64) os << " " << m.mem().peek(kData + off);
  os << "\n";
  return os.str();
}

TEST(NopRun, UntracedRunMatchesPerCycleIssueOnEveryPreset) {
  for (const PlatformSpec& spec : all_platforms()) {
    for (const Case& c : all_cases()) {
      SCOPED_TRACE(spec.name + std::string(" / ") + c.name);
      const std::string per_cycle = run_and_describe(spec, c, /*traced=*/true);
      EXPECT_EQ(run_and_describe(spec, c, /*traced=*/false), per_cycle);
    }
  }
}

TEST(NopRun, CasesReachTheStatesTheyAreNamedFor) {
  // Guard the cases themselves: a squash happens, the cap truncates the
  // run, and a WFE consumed core 1's invalidation without parking.
  const PlatformSpec spec = rpi4();
  const auto run = [&](const Case& c) {
    Machine m(spec, 1u << 20);
    for (CoreId core = 0; core < c.programs.size(); ++core)
      m.load_program(core, c.programs[core]);
    RunConfig cfg;
    cfg.max_cycles = c.max_cycles;
    return m.run(cfg);
  };
  const RunResult gate = run(drain_and_gate_case());
  EXPECT_TRUE(gate.completed);
  EXPECT_EQ(gate.cores[0].wfe_parks, 0u);
  EXPECT_EQ(gate.cores[0].sb_retired, 3u);
  const RunResult squash = run(squash_case());
  EXPECT_TRUE(squash.completed);
  EXPECT_EQ(squash.cores[0].squashes, 1u);
  EXPECT_EQ(squash.cores[0].sb_retired, 1u);
  const RunResult cap = run(cap_case());
  EXPECT_FALSE(cap.completed);
  EXPECT_EQ(cap.cycles, 517u);
  EXPECT_LT(cap.cores[0].instructions, 1000u);
  // The gate waits happen, the branches commit or squash as named, the
  // barrier and the park happen, and the caps truncate the runs inside a
  // wait and inside a run.
  const auto gate_stall = [](const RunResult& r) {
    return r.cores[0].stall_cycles[static_cast<int>(StallCause::kStoreGate)];
  };
  const RunResult steal = run(gate_steal_case());
  EXPECT_TRUE(steal.completed);
  EXPECT_GT(gate_stall(steal), 0u);
  EXPECT_EQ(steal.cores[0].sb_retired, 4u);
  const RunResult chain = run(dmb_st_chain_case());
  EXPECT_GT(gate_stall(chain), 0u);
  EXPECT_EQ(chain.cores[0].barriers, 2u);
  const RunResult commit = run(commit_in_run_and_gate_wait_case());
  EXPECT_EQ(commit.cores[0].squashes, 0u);
  EXPECT_GT(gate_stall(commit), 0u);
  const RunResult squash2 = run(squash_in_run_and_gate_wait_case());
  EXPECT_EQ(squash2.cores[0].squashes, 2u);
  EXPECT_GT(gate_stall(squash2), 0u);
  const RunResult alu = run(alu_run_case());
  EXPECT_EQ(alu.cores[0].instructions, 14u);  // one movi jumped over
  EXPECT_GT(alu.cores[0].stall_cycles[static_cast<int>(StallCause::kOperand)], 0u);
  const RunResult held = run(barrier_and_park_case());
  EXPECT_TRUE(held.completed);
  EXPECT_EQ(held.cores[0].barriers, 1u);
  EXPECT_EQ(held.cores[0].wfe_parks, 1u);
  EXPECT_GT(held.cycles, spec.lat.wfe_timeout);
  const RunResult gate_cap = run(gate_wait_cap_case());
  EXPECT_FALSE(gate_cap.completed);
  EXPECT_EQ(gate_cap.cycles, 30u);
  EXPECT_EQ(gate_cap.cores[0].stores, 1u);
  EXPECT_GT(gate_stall(gate_cap), 0u);
  const RunResult run_cap = run(run_cap_case());
  EXPECT_FALSE(run_cap.completed);
  EXPECT_EQ(run_cap.cycles, 517u);
  EXPECT_LT(run_cap.cores[0].instructions, 3000u);
}

/// Loads each line, then parks in WFE until the first line reads non-zero.
Program waiter_on(const std::vector<Addr>& lines) {
  Asm w;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    w.movi(static_cast<Reg>(X0 + i), static_cast<std::int64_t>(lines[i]));
    w.ldr(X4, static_cast<Reg>(X0 + i), 0);
  }
  w.label("wait");
  w.wfe();
  w.ldr(X4, X0, 0);
  w.cbz(X4, "wait");
  w.halt();
  return w.take("waiter");
}

/// Stores 1 to `line` once, after NOPs that time its drain to start just
/// after the waiters re-park.
Program store_once(Addr line) {
  Asm s;
  s.movi(X0, static_cast<std::int64_t>(line)).movi(X1, 1);
  s.nops(2700);
  s.str(X1, X0, 0);
  s.halt();
  return s.take("storer");
}

/// Each node of a 64-core machine has one storer (cores 16 and 48) and 31
/// waiters parked in WFE on the storer's line; each storer stores once.
/// Its NOPs time the drain to start just after the waiters re-park, and its
/// invalidation stays on the node, so it lands before their WFE timeout and
/// wakes parked cores with lower and higher ids than the storer at the same
/// cycle.
RunResult wake_both_sides(const PlatformSpec& spec) {
  Machine m(spec, 1u << 20);
  for (CoreId c = 0; c < 64; ++c) {
    const Addr line = c < 32 ? kData : kData + 0x1000;
    m.load_program(c, c % 32 == 16 ? store_once(line) : waiter_on({line}));
  }
  return m.run({});
}

/// Every RunResult field: completion and cycles, then every CoreStats field
/// of each program-bearing core in id order (instructions, loads, stores,
/// load_misses, barriers, squashes, wfe_parks, stxr_failures, sb_retired,
/// halted_at, the stall cycles by cause), then MemStats. Rendered as text so
/// a mismatch reads as a diff.
std::string describe(const RunResult& r) {
  std::ostringstream os;
  os << "completed=" << r.completed << " cycles=" << r.cycles << "\n";
  for (std::size_t i = 0; i < r.cores.size(); ++i) {
    const CoreStats& s = r.cores[i];
    os << i << ": " << s.instructions << " " << s.loads << " " << s.stores
       << " " << s.load_misses << " " << s.barriers << " " << s.squashes
       << " " << s.wfe_parks << " " << s.stxr_failures << " "
       << s.sb_retired << " halted_at=" << s.halted_at << " stalls";
    for (std::uint64_t v : s.stall_cycles) os << " " << v;
    os << "\n";
  }
  const MemStats& m = r.mem;
  os << "mem: " << m.gets_local << " " << m.gets_remote << " " << m.getm_local
     << " " << m.getm_remote << " " << m.mem_fills << " " << m.upgrades << " "
     << m.hits << "\n";
  return os.str();
}

TEST(DueSweep, StoreWakesParkedCoresOnBothSidesOfTheStorer) {
  // Pinned: the values the walk over every live core produced. Each node
  // halts the same way: its storer at 2703 after parking nothing, then the
  // woken waiters, each parked 6 times, one read-occupancy window (12
  // cycles) apart, in id order.
  EXPECT_EQ(describe(wake_both_sides(kunpeng916())), R"(completed=1 cycles=3332
0: 21 7 0 2 0 1 6 0 0 halted_at=2972 stalls 0 0 0 0 0 0 0 98 12 0
1: 21 7 0 2 0 1 6 0 0 halted_at=2984 stalls 0 0 0 0 0 0 0 110 12 0
2: 21 7 0 2 0 1 6 0 0 halted_at=2996 stalls 0 0 0 0 0 0 0 122 12 0
3: 21 7 0 2 0 1 6 0 0 halted_at=3008 stalls 0 0 0 0 0 0 0 134 12 0
4: 21 7 0 2 0 1 6 0 0 halted_at=3020 stalls 0 0 0 0 0 0 0 146 12 0
5: 21 7 0 2 0 1 6 0 0 halted_at=3032 stalls 0 0 0 0 0 0 0 158 12 0
6: 21 7 0 2 0 1 6 0 0 halted_at=3044 stalls 0 0 0 0 0 0 0 170 12 0
7: 21 7 0 2 0 1 6 0 0 halted_at=3056 stalls 0 0 0 0 0 0 0 182 12 0
8: 21 7 0 2 0 1 6 0 0 halted_at=3068 stalls 0 0 0 0 0 0 0 194 12 0
9: 21 7 0 2 0 1 6 0 0 halted_at=3080 stalls 0 0 0 0 0 0 0 206 12 0
10: 21 7 0 2 0 1 6 0 0 halted_at=3092 stalls 0 0 0 0 0 0 0 218 12 0
11: 21 7 0 2 0 1 6 0 0 halted_at=3104 stalls 0 0 0 0 0 0 0 230 12 0
12: 21 7 0 2 0 1 6 0 0 halted_at=3116 stalls 0 0 0 0 0 0 0 242 12 0
13: 21 7 0 2 0 1 6 0 0 halted_at=3128 stalls 0 0 0 0 0 0 0 254 12 0
14: 21 7 0 2 0 1 6 0 0 halted_at=3140 stalls 0 0 0 0 0 0 0 266 12 0
15: 21 7 0 2 0 1 6 0 0 halted_at=3152 stalls 0 0 0 0 0 0 0 278 12 0
16: 2704 0 1 0 0 0 0 0 1 halted_at=2703 stalls 0 0 0 0 0 0 0 0 0 0
17: 21 7 0 2 0 1 6 0 0 halted_at=3164 stalls 0 0 0 0 0 0 0 290 12 0
18: 21 7 0 2 0 1 6 0 0 halted_at=3176 stalls 0 0 0 0 0 0 0 302 12 0
19: 21 7 0 2 0 1 6 0 0 halted_at=3188 stalls 0 0 0 0 0 0 0 314 12 0
20: 21 7 0 2 0 1 6 0 0 halted_at=3200 stalls 0 0 0 0 0 0 0 326 12 0
21: 21 7 0 2 0 1 6 0 0 halted_at=3212 stalls 0 0 0 0 0 0 0 338 12 0
22: 21 7 0 2 0 1 6 0 0 halted_at=3224 stalls 0 0 0 0 0 0 0 350 12 0
23: 21 7 0 2 0 1 6 0 0 halted_at=3236 stalls 0 0 0 0 0 0 0 362 12 0
24: 21 7 0 2 0 1 6 0 0 halted_at=3248 stalls 0 0 0 0 0 0 0 374 12 0
25: 21 7 0 2 0 1 6 0 0 halted_at=3260 stalls 0 0 0 0 0 0 0 386 12 0
26: 21 7 0 2 0 1 6 0 0 halted_at=3272 stalls 0 0 0 0 0 0 0 398 12 0
27: 21 7 0 2 0 1 6 0 0 halted_at=3284 stalls 0 0 0 0 0 0 0 410 12 0
28: 21 7 0 2 0 1 6 0 0 halted_at=3296 stalls 0 0 0 0 0 0 0 422 12 0
29: 21 7 0 2 0 1 6 0 0 halted_at=3308 stalls 0 0 0 0 0 0 0 434 12 0
30: 21 7 0 2 0 1 6 0 0 halted_at=3320 stalls 0 0 0 0 0 0 0 446 12 0
31: 21 7 0 2 0 1 6 0 0 halted_at=3332 stalls 0 0 0 0 0 0 0 458 12 0
32: 21 7 0 2 0 1 6 0 0 halted_at=2972 stalls 0 0 0 0 0 0 0 98 12 0
33: 21 7 0 2 0 1 6 0 0 halted_at=2984 stalls 0 0 0 0 0 0 0 110 12 0
34: 21 7 0 2 0 1 6 0 0 halted_at=2996 stalls 0 0 0 0 0 0 0 122 12 0
35: 21 7 0 2 0 1 6 0 0 halted_at=3008 stalls 0 0 0 0 0 0 0 134 12 0
36: 21 7 0 2 0 1 6 0 0 halted_at=3020 stalls 0 0 0 0 0 0 0 146 12 0
37: 21 7 0 2 0 1 6 0 0 halted_at=3032 stalls 0 0 0 0 0 0 0 158 12 0
38: 21 7 0 2 0 1 6 0 0 halted_at=3044 stalls 0 0 0 0 0 0 0 170 12 0
39: 21 7 0 2 0 1 6 0 0 halted_at=3056 stalls 0 0 0 0 0 0 0 182 12 0
40: 21 7 0 2 0 1 6 0 0 halted_at=3068 stalls 0 0 0 0 0 0 0 194 12 0
41: 21 7 0 2 0 1 6 0 0 halted_at=3080 stalls 0 0 0 0 0 0 0 206 12 0
42: 21 7 0 2 0 1 6 0 0 halted_at=3092 stalls 0 0 0 0 0 0 0 218 12 0
43: 21 7 0 2 0 1 6 0 0 halted_at=3104 stalls 0 0 0 0 0 0 0 230 12 0
44: 21 7 0 2 0 1 6 0 0 halted_at=3116 stalls 0 0 0 0 0 0 0 242 12 0
45: 21 7 0 2 0 1 6 0 0 halted_at=3128 stalls 0 0 0 0 0 0 0 254 12 0
46: 21 7 0 2 0 1 6 0 0 halted_at=3140 stalls 0 0 0 0 0 0 0 266 12 0
47: 21 7 0 2 0 1 6 0 0 halted_at=3152 stalls 0 0 0 0 0 0 0 278 12 0
48: 2704 0 1 0 0 0 0 0 1 halted_at=2703 stalls 0 0 0 0 0 0 0 0 0 0
49: 21 7 0 2 0 1 6 0 0 halted_at=3164 stalls 0 0 0 0 0 0 0 290 12 0
50: 21 7 0 2 0 1 6 0 0 halted_at=3176 stalls 0 0 0 0 0 0 0 302 12 0
51: 21 7 0 2 0 1 6 0 0 halted_at=3188 stalls 0 0 0 0 0 0 0 314 12 0
52: 21 7 0 2 0 1 6 0 0 halted_at=3200 stalls 0 0 0 0 0 0 0 326 12 0
53: 21 7 0 2 0 1 6 0 0 halted_at=3212 stalls 0 0 0 0 0 0 0 338 12 0
54: 21 7 0 2 0 1 6 0 0 halted_at=3224 stalls 0 0 0 0 0 0 0 350 12 0
55: 21 7 0 2 0 1 6 0 0 halted_at=3236 stalls 0 0 0 0 0 0 0 362 12 0
56: 21 7 0 2 0 1 6 0 0 halted_at=3248 stalls 0 0 0 0 0 0 0 374 12 0
57: 21 7 0 2 0 1 6 0 0 halted_at=3260 stalls 0 0 0 0 0 0 0 386 12 0
58: 21 7 0 2 0 1 6 0 0 halted_at=3272 stalls 0 0 0 0 0 0 0 398 12 0
59: 21 7 0 2 0 1 6 0 0 halted_at=3284 stalls 0 0 0 0 0 0 0 410 12 0
60: 21 7 0 2 0 1 6 0 0 halted_at=3296 stalls 0 0 0 0 0 0 0 422 12 0
61: 21 7 0 2 0 1 6 0 0 halted_at=3308 stalls 0 0 0 0 0 0 0 434 12 0
62: 21 7 0 2 0 1 6 0 0 halted_at=3320 stalls 0 0 0 0 0 0 0 446 12 0
63: 21 7 0 2 0 1 6 0 0 halted_at=3332 stalls 0 0 0 0 0 0 0 458 12 0
mem: 122 0 2 0 2 0 310
)");
}

TEST(DueSweep, SameCycleWakeJoinsTheSweep) {
  // With free invalidations a woken parker's wake lands on the very cycle
  // being swept: later ids join the sweep, earlier ids are stepped by the
  // next pass at the same cycle.
  PlatformSpec spec = kunpeng916();
  spec.lat.inv_local = 0;
  spec.lat.inv_remote = 0;
  // Pinned as above. The waiters above the storer load first: they were
  // stepped in the storer's own sweep, the ones below it one pass later.
  EXPECT_EQ(describe(wake_both_sides(spec)), R"(completed=1 cycles=3182
0: 21 7 0 2 0 1 6 0 0 halted_at=3002 stalls 0 0 0 0 0 0 0 278 12 0
1: 21 7 0 2 0 1 6 0 0 halted_at=3014 stalls 0 0 0 0 0 0 0 290 12 0
2: 21 7 0 2 0 1 6 0 0 halted_at=3026 stalls 0 0 0 0 0 0 0 302 12 0
3: 21 7 0 2 0 1 6 0 0 halted_at=3038 stalls 0 0 0 0 0 0 0 314 12 0
4: 21 7 0 2 0 1 6 0 0 halted_at=3050 stalls 0 0 0 0 0 0 0 326 12 0
5: 21 7 0 2 0 1 6 0 0 halted_at=3062 stalls 0 0 0 0 0 0 0 338 12 0
6: 21 7 0 2 0 1 6 0 0 halted_at=3074 stalls 0 0 0 0 0 0 0 350 12 0
7: 21 7 0 2 0 1 6 0 0 halted_at=3086 stalls 0 0 0 0 0 0 0 362 12 0
8: 21 7 0 2 0 1 6 0 0 halted_at=3098 stalls 0 0 0 0 0 0 0 374 12 0
9: 21 7 0 2 0 1 6 0 0 halted_at=3110 stalls 0 0 0 0 0 0 0 386 12 0
10: 21 7 0 2 0 1 6 0 0 halted_at=3122 stalls 0 0 0 0 0 0 0 398 12 0
11: 21 7 0 2 0 1 6 0 0 halted_at=3134 stalls 0 0 0 0 0 0 0 410 12 0
12: 21 7 0 2 0 1 6 0 0 halted_at=3146 stalls 0 0 0 0 0 0 0 422 12 0
13: 21 7 0 2 0 1 6 0 0 halted_at=3158 stalls 0 0 0 0 0 0 0 434 12 0
14: 21 7 0 2 0 1 6 0 0 halted_at=3170 stalls 0 0 0 0 0 0 0 446 12 0
15: 21 7 0 2 0 1 6 0 0 halted_at=3182 stalls 0 0 0 0 0 0 0 458 12 0
16: 2704 0 1 0 0 0 0 0 1 halted_at=2703 stalls 0 0 0 0 0 0 0 0 0 0
17: 21 7 0 2 0 1 6 0 0 halted_at=2822 stalls 0 0 0 0 0 0 0 98 12 0
18: 21 7 0 2 0 1 6 0 0 halted_at=2834 stalls 0 0 0 0 0 0 0 110 12 0
19: 21 7 0 2 0 1 6 0 0 halted_at=2846 stalls 0 0 0 0 0 0 0 122 12 0
20: 21 7 0 2 0 1 6 0 0 halted_at=2858 stalls 0 0 0 0 0 0 0 134 12 0
21: 21 7 0 2 0 1 6 0 0 halted_at=2870 stalls 0 0 0 0 0 0 0 146 12 0
22: 21 7 0 2 0 1 6 0 0 halted_at=2882 stalls 0 0 0 0 0 0 0 158 12 0
23: 21 7 0 2 0 1 6 0 0 halted_at=2894 stalls 0 0 0 0 0 0 0 170 12 0
24: 21 7 0 2 0 1 6 0 0 halted_at=2906 stalls 0 0 0 0 0 0 0 182 12 0
25: 21 7 0 2 0 1 6 0 0 halted_at=2918 stalls 0 0 0 0 0 0 0 194 12 0
26: 21 7 0 2 0 1 6 0 0 halted_at=2930 stalls 0 0 0 0 0 0 0 206 12 0
27: 21 7 0 2 0 1 6 0 0 halted_at=2942 stalls 0 0 0 0 0 0 0 218 12 0
28: 21 7 0 2 0 1 6 0 0 halted_at=2954 stalls 0 0 0 0 0 0 0 230 12 0
29: 21 7 0 2 0 1 6 0 0 halted_at=2966 stalls 0 0 0 0 0 0 0 242 12 0
30: 21 7 0 2 0 1 6 0 0 halted_at=2978 stalls 0 0 0 0 0 0 0 254 12 0
31: 21 7 0 2 0 1 6 0 0 halted_at=2990 stalls 0 0 0 0 0 0 0 266 12 0
32: 21 7 0 2 0 1 6 0 0 halted_at=3002 stalls 0 0 0 0 0 0 0 278 12 0
33: 21 7 0 2 0 1 6 0 0 halted_at=3014 stalls 0 0 0 0 0 0 0 290 12 0
34: 21 7 0 2 0 1 6 0 0 halted_at=3026 stalls 0 0 0 0 0 0 0 302 12 0
35: 21 7 0 2 0 1 6 0 0 halted_at=3038 stalls 0 0 0 0 0 0 0 314 12 0
36: 21 7 0 2 0 1 6 0 0 halted_at=3050 stalls 0 0 0 0 0 0 0 326 12 0
37: 21 7 0 2 0 1 6 0 0 halted_at=3062 stalls 0 0 0 0 0 0 0 338 12 0
38: 21 7 0 2 0 1 6 0 0 halted_at=3074 stalls 0 0 0 0 0 0 0 350 12 0
39: 21 7 0 2 0 1 6 0 0 halted_at=3086 stalls 0 0 0 0 0 0 0 362 12 0
40: 21 7 0 2 0 1 6 0 0 halted_at=3098 stalls 0 0 0 0 0 0 0 374 12 0
41: 21 7 0 2 0 1 6 0 0 halted_at=3110 stalls 0 0 0 0 0 0 0 386 12 0
42: 21 7 0 2 0 1 6 0 0 halted_at=3122 stalls 0 0 0 0 0 0 0 398 12 0
43: 21 7 0 2 0 1 6 0 0 halted_at=3134 stalls 0 0 0 0 0 0 0 410 12 0
44: 21 7 0 2 0 1 6 0 0 halted_at=3146 stalls 0 0 0 0 0 0 0 422 12 0
45: 21 7 0 2 0 1 6 0 0 halted_at=3158 stalls 0 0 0 0 0 0 0 434 12 0
46: 21 7 0 2 0 1 6 0 0 halted_at=3170 stalls 0 0 0 0 0 0 0 446 12 0
47: 21 7 0 2 0 1 6 0 0 halted_at=3182 stalls 0 0 0 0 0 0 0 458 12 0
48: 2704 0 1 0 0 0 0 0 1 halted_at=2703 stalls 0 0 0 0 0 0 0 0 0 0
49: 21 7 0 2 0 1 6 0 0 halted_at=2822 stalls 0 0 0 0 0 0 0 98 12 0
50: 21 7 0 2 0 1 6 0 0 halted_at=2834 stalls 0 0 0 0 0 0 0 110 12 0
51: 21 7 0 2 0 1 6 0 0 halted_at=2846 stalls 0 0 0 0 0 0 0 122 12 0
52: 21 7 0 2 0 1 6 0 0 halted_at=2858 stalls 0 0 0 0 0 0 0 134 12 0
53: 21 7 0 2 0 1 6 0 0 halted_at=2870 stalls 0 0 0 0 0 0 0 146 12 0
54: 21 7 0 2 0 1 6 0 0 halted_at=2882 stalls 0 0 0 0 0 0 0 158 12 0
55: 21 7 0 2 0 1 6 0 0 halted_at=2894 stalls 0 0 0 0 0 0 0 170 12 0
56: 21 7 0 2 0 1 6 0 0 halted_at=2906 stalls 0 0 0 0 0 0 0 182 12 0
57: 21 7 0 2 0 1 6 0 0 halted_at=2918 stalls 0 0 0 0 0 0 0 194 12 0
58: 21 7 0 2 0 1 6 0 0 halted_at=2930 stalls 0 0 0 0 0 0 0 206 12 0
59: 21 7 0 2 0 1 6 0 0 halted_at=2942 stalls 0 0 0 0 0 0 0 218 12 0
60: 21 7 0 2 0 1 6 0 0 halted_at=2954 stalls 0 0 0 0 0 0 0 230 12 0
61: 21 7 0 2 0 1 6 0 0 halted_at=2966 stalls 0 0 0 0 0 0 0 242 12 0
62: 21 7 0 2 0 1 6 0 0 halted_at=2978 stalls 0 0 0 0 0 0 0 254 12 0
63: 21 7 0 2 0 1 6 0 0 halted_at=2990 stalls 0 0 0 0 0 0 0 266 12 0
mem: 122 0 2 0 2 0 310
)");
}

TEST(DueSweep, NextCycleWakeEntersTheLane) {
  // With one-cycle invalidations the storer's drain, started while it is
  // swept at cycle T, wakes the parked waiters at exactly T + 1: the
  // invalidate hook writes each of them into the next-cycle lane, below
  // and above the storer's id.
  PlatformSpec spec = kunpeng916();
  spec.lat.inv_local = 1;
  spec.lat.inv_remote = 1;
  Machine m(spec, 1u << 20);
  for (const CoreId c : {1u, 2u, 5u, 7u}) m.load_program(c, waiter_on({kData}));
  m.load_program(4, store_once(kData));
  RunConfig cfg;
  cfg.verify_every = 1;
  // Pinned: the values the heap-only scheduler produced.
  EXPECT_EQ(describe(m.run(cfg)), R"(completed=1 cycles=2859
0: 21 7 0 2 0 1 6 0 0 halted_at=2823 stalls 0 0 0 0 0 0 0 98 12 0
1: 21 7 0 2 0 1 6 0 0 halted_at=2835 stalls 0 0 0 0 0 0 0 110 12 0
2: 2704 0 1 0 0 0 0 0 1 halted_at=2703 stalls 0 0 0 0 0 0 0 0 0 0
3: 21 7 0 2 0 1 6 0 0 halted_at=2847 stalls 0 0 0 0 0 0 0 122 12 0
4: 21 7 0 2 0 1 6 0 0 halted_at=2859 stalls 0 0 0 0 0 0 0 134 12 0
mem: 7 0 1 0 1 0 20
)");
}

TEST(DueSweep, EarlierWakePullsACoreOutOfTheLane) {
  // Core 5 parks holding line A, shared on node 0 only, and line B. In one
  // sweep core 2 (node 0) takes A, whose one-cycle invalidation puts core 5
  // into the next-cycle lane, then core 40 (node 1) takes B across nodes,
  // whose free invalidation pulls core 5 back to the cycle being swept: it
  // leaves the lane and, as an id below the storer's, is stepped by the
  // next pass at the same cycle. Core 9 counts in registers all along, so
  // that second pass finds it in the lane for the next cycle and must
  // leave it there.
  PlatformSpec spec = kunpeng916();
  spec.lat.inv_local = 1;
  spec.lat.inv_remote = 0;
  constexpr Addr kLineB = kData + 0x1000;
  Machine m(spec, 1u << 20);
  m.load_program(5, waiter_on({kData, kLineB}));
  m.load_program(2, store_once(kData));
  m.load_program(40, store_once(kLineB));
  Asm counter;
  counter.movi(X2, 0);
  counter.label("loop");
  counter.addi(X2, X2, 1);
  counter.cmpi(X2, 2000);
  counter.blt("loop");
  counter.halt();
  m.load_program(9, counter.take("counter"));
  RunConfig cfg;
  cfg.verify_every = 1;
  // Pinned: the values the heap-only scheduler produced.
  EXPECT_EQ(describe(m.run(cfg)), R"(completed=1 cycles=6001
0: 2704 0 1 0 0 0 0 0 1 halted_at=2703 stalls 0 0 0 0 0 0 0 0 0 0
1: 26 9 0 3 0 1 6 0 0 halted_at=2825 stalls 0 0 0 0 0 0 0 98 12 0
2: 6002 0 0 0 0 0 0 0 0 halted_at=6001 stalls 0 0 0 0 0 0 0 0 0 0
3: 2704 0 1 0 0 0 0 0 1 halted_at=2703 stalls 0 0 0 0 0 0 0 0 0 0
mem: 1 0 1 1 2 0 6
)");
}

}  // namespace
}  // namespace armbar::sim

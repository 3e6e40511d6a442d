// Exactness of event-driven stepping: a core is stepped only at cycles
// where its step can change something, and that must never move a
// simulated value.
//   * NOP runs: an untraced core retires a run of NOPs in one step; with a
//     tracer attached NOPs issue one per step, so the traced run is the
//     per-cycle reference.
//   * Due sweep: only the cores due at a cycle are stepped, in id order,
//     and a store's invalidation that wakes WFE-parked cores on both sides
//     of the storer keeps the cycle counts the full walk over every live
//     core produced.
//   * Next-cycle lane: a wake the invalidate hook lands on the cycle after
//     the sweep goes into the scheduler's lane, and a later, earlier wake
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
    for (const Case& c : {drain_and_gate_case(), squash_case(), cap_case()}) {
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

std::vector<Cycle> halted_at(const RunResult& r) {
  std::vector<Cycle> out;
  for (const CoreStats& s : r.cores) out.push_back(s.halted_at);
  return out;
}

TEST(DueSweep, StoreWakesParkedCoresOnBothSidesOfTheStorer) {
  const RunResult r = wake_both_sides(kunpeng916());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.cores.size(), 64u);
  for (CoreId c = 0; c < 64; ++c)
    EXPECT_EQ(r.cores[c].wfe_parks, c % 32 == 16 ? 0u : 6u) << "core " << c;
  // Pinned: the values the walk over every live core produced. Each node
  // halts the same way: its storer at 2703, then the woken waiters one
  // read-occupancy window (12 cycles) apart, in id order.
  EXPECT_EQ(r.cycles, 3332u);
  const std::vector<Cycle> node = {
      2972, 2984, 2996, 3008, 3020, 3032, 3044, 3056,
      3068, 3080, 3092, 3104, 3116, 3128, 3140, 3152,
      2703, 3164, 3176, 3188, 3200, 3212, 3224, 3236,
      3248, 3260, 3272, 3284, 3296, 3308, 3320, 3332};
  std::vector<Cycle> expect = node;
  expect.insert(expect.end(), node.begin(), node.end());
  EXPECT_EQ(halted_at(r), expect);
}

TEST(DueSweep, SameCycleWakeJoinsTheSweep) {
  // With free invalidations a woken parker's wake lands on the very cycle
  // being swept: later ids join the sweep, earlier ids are stepped by the
  // next pass at the same cycle.
  PlatformSpec spec = kunpeng916();
  spec.lat.inv_local = 0;
  spec.lat.inv_remote = 0;
  const RunResult r = wake_both_sides(spec);
  ASSERT_TRUE(r.completed);
  // Pinned as above. The waiters above the storer load first: they were
  // stepped in the storer's own sweep, the ones below it one pass later.
  EXPECT_EQ(r.cycles, 3182u);
  const std::vector<Cycle> node = {
      3002, 3014, 3026, 3038, 3050, 3062, 3074, 3086,
      3098, 3110, 3122, 3134, 3146, 3158, 3170, 3182,
      2703, 2822, 2834, 2846, 2858, 2870, 2882, 2894,
      2906, 2918, 2930, 2942, 2954, 2966, 2978, 2990};
  std::vector<Cycle> expect = node;
  expect.insert(expect.end(), node.begin(), node.end());
  EXPECT_EQ(halted_at(r), expect);
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

// Differential harness behaviour: clean agreement on correct programs,
// detection of planted ordering bugs, and deterministic digests.
#include "fuzz/diff.hpp"

#include <gtest/gtest.h>

#include "fuzz/gen.hpp"
#include "sim/platform.hpp"
#include "sim/program.hpp"

namespace f = armbar::fuzz;
namespace m = armbar::model;
using armbar::Addr;
using armbar::sim::Asm;
using armbar::sim::Op;

namespace {

constexpr Addr kX = 0x1000;
constexpr Addr kY = 0x2000;

// SB with an optional fence between each thread's store and load. The only
// shape whose weak outcome ((0,0)) every store-buffered machine exhibits
// readily, which makes the planted-bug tests deterministic in practice.
m::ConcurrentProgram sb(bool fenced) {
  m::ConcurrentProgram p;
  p.name = fenced ? "sb+dmb" : "sb";
  auto side = [&](Addr mine, Addr other) {
    Asm a;
    a.movi(armbar::sim::X0, static_cast<std::int64_t>(mine));
    a.movi(armbar::sim::X1, static_cast<std::int64_t>(other));
    a.movi(armbar::sim::X5, 1);
    a.str(armbar::sim::X5, armbar::sim::X0);
    if (fenced) a.dmb_full();
    a.ldr(armbar::sim::X6, armbar::sim::X1);
    a.halt();
    return a.take(p.name);
  };
  p.threads = {side(kX, kY), side(kY, kX)};
  p.observe_regs = {{0, armbar::sim::X6}, {1, armbar::sim::X6}};
  p.init = {{kX, 0}, {kY, 0}};
  // No observe_mem: outcomes stay (r0, r1), matching the classic SB table.
  return p;
}

f::DiffOptions small_grid() {
  f::DiffOptions o;
  o.platforms = {armbar::sim::all_platforms().front().name};
  o.plans.push_back({});
  o.plans.push_back(armbar::sim::fault::FaultPlan::chaos(1));
  o.skews = {0, 7};
  return o;
}

TEST(FuzzDiff, FencedSbIsClean) {
  const f::DiffResult r = f::run_diff(sb(/*fenced=*/true), small_grid());
  EXPECT_TRUE(r.model_valid) << r.model_error;
  EXPECT_TRUE(r.ok()) << r.summary();
  for (const auto& o : r.observed)
    EXPECT_TRUE(r.allowed.count(o)) << m::to_string(o);
  // dmb in both threads forbids exactly (0,0): three outcomes remain.
  EXPECT_EQ(r.allowed.size(), 3u);
  EXPECT_EQ(r.allowed.count({0, 0}), 0u);
}

TEST(FuzzDiff, UnfencedSbShowsStoreBufferingAndModelAllowsIt) {
  const f::DiffResult r = f::run_diff(sb(/*fenced=*/false), small_grid());
  EXPECT_TRUE(r.model_valid) << r.model_error;
  EXPECT_TRUE(r.ok()) << r.summary();
  // The simulator's store buffers must actually exhibit the relaxed
  // outcome — the planted-bug pipeline depends on it.
  EXPECT_TRUE(r.observed.count({0, 0}));
  EXPECT_EQ(r.allowed.size(), 4u);
}

TEST(FuzzDiff, PlantedDroppedFenceIsCaught) {
  f::DiffOptions o = small_grid();
  o.mutation = f::SimMutation::kDropDmbFull;
  const f::DiffResult r = f::run_diff(sb(/*fenced=*/true), o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failures.front().kind, "mismatch");
  EXPECT_EQ(r.failures.front().observed, m::Outcome({0, 0}));
}

TEST(FuzzDiff, DigestIsDeterministic) {
  f::DiffOptions o = small_grid();
  o.mutation = f::SimMutation::kDropDmbFull;
  const auto prog = sb(/*fenced=*/true);
  const std::uint64_t d1 = f::run_diff(prog, o).digest();
  const std::uint64_t d2 = f::run_diff(prog, o).digest();
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, f::run_diff(sb(/*fenced=*/false), o).digest());
}

TEST(FuzzDiff, TimeoutIsReported) {
  m::ConcurrentProgram p;
  p.name = "spin";
  Asm a;
  a.movi(armbar::sim::X0, static_cast<std::int64_t>(kX));
  a.label("again");
  a.ldr(armbar::sim::X5, armbar::sim::X0);
  a.cbz(armbar::sim::X5, "again");  // never satisfied: no writer
  a.halt();
  p.threads = {a.take("spin-t0")};
  Asm b;
  b.halt();
  p.threads.push_back(b.take("spin-t1"));
  p.observe_regs = {{0, armbar::sim::X5}};
  p.init = {{kX, 0}};
  p.observe_mem = {kX};

  f::DiffOptions o = small_grid();
  o.max_cycles = 20'000;
  const f::DiffResult r = f::run_diff(p, o);
  ASSERT_FALSE(r.ok());
  bool saw_timeout = false;
  for (const auto& fl : r.failures) saw_timeout |= fl.kind == "timeout";
  EXPECT_TRUE(saw_timeout) << r.summary();
}

TEST(FuzzDiff, HaltedCoreSeedsRunClean) {
  // Seeds 351 and 437 once aborted the whole campaign: a halted core lost
  // the wake for a store whose gating branch committed in HALT's own step.
  for (const std::uint64_t seed : {351, 437}) {
    const f::DiffResult r =
        f::run_diff(f::generate(seed), f::DiffOptions::defaults(8));
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.summary();
  }
}

TEST(FuzzDiff, MutationStringsRoundTrip) {
  for (auto mt : {f::SimMutation::kNone, f::SimMutation::kDropDmbSt,
                  f::SimMutation::kDropDmbLd, f::SimMutation::kDropDmbFull,
                  f::SimMutation::kDropRelAcq}) {
    f::SimMutation back;
    ASSERT_TRUE(f::mutation_from_string(f::to_string(mt), &back));
    EXPECT_EQ(back, mt);
  }
  f::SimMutation back;
  EXPECT_FALSE(f::mutation_from_string("bogus", &back));
}

}  // namespace

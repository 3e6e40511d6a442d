// sim::insert_nops: the one way a built program is staggered. The litmus
// harness inserts each thread's skew at its skew point, and the
// differential fuzzer prepends its stagger (at = 0).
#include <gtest/gtest.h>

#include "sim/program.hpp"

namespace armbar::sim {
namespace {

// pc: 0 movi, 1 label top: ldr, 2 cbz -> fwd, 3 b -> top, 4 fwd: halt.
Program looped() {
  Asm a;
  a.movi(X0, 0x1000);
  a.label("top");
  a.ldr(X1, X0, 0);
  a.cbz(X1, "fwd");
  a.b("top");
  a.label("fwd");
  a.halt();
  return a.take("looped");
}

TEST(InsertNops, AtZeroShiftsEveryBranchTarget) {
  const Program p = looped();
  const Program q = insert_nops(p, 0, 5);
  EXPECT_EQ(q.name, p.name);
  ASSERT_EQ(q.size(), p.size() + 5);
  for (std::uint32_t pc = 0; pc < 5; ++pc) EXPECT_EQ(q.at(pc).op, Op::kNop);
  for (std::uint32_t pc = 0; pc < p.size(); ++pc) {
    Instr want = p.at(pc);
    if (is_branch(want.op)) want.target += 5;
    EXPECT_EQ(to_string(q.at(pc + 5)), to_string(want)) << pc;
    EXPECT_EQ(q.at(pc + 5).target, want.target) << pc;
  }
}

TEST(InsertNops, ShiftsOnlyTargetsAtOrAfterThePoint) {
  const Program p = looped();
  // Insert before pc 2: `b top` (target 1) stays, `cbz fwd` (4) moves.
  const Program q = insert_nops(p, 2, 3);
  ASSERT_EQ(q.size(), p.size() + 3);
  EXPECT_EQ(q.at(0).op, Op::kMovImm);
  EXPECT_EQ(q.at(1).op, Op::kLdr);
  for (std::uint32_t pc = 2; pc < 5; ++pc) EXPECT_EQ(q.at(pc).op, Op::kNop);
  EXPECT_EQ(q.at(5).op, Op::kCbz);
  EXPECT_EQ(q.at(5).target, 7u);
  EXPECT_EQ(q.at(6).op, Op::kB);
  EXPECT_EQ(q.at(6).target, 1u);
  // A target exactly at the insertion point moves past the NOPs.
  const Program r = insert_nops(p, 1, 2);
  EXPECT_EQ(r.at(5).op, Op::kB);
  EXPECT_EQ(r.at(5).target, 3u);
}

TEST(InsertNops, MatchesAsmNopsEmittedBeforeALabel) {
  // A polling loop whose label sits at the skew point, as in the litmus
  // shapes: inserting n NOPs there equals assembling with nops(n).
  auto build = [](std::uint32_t n, std::uint32_t* skew_at) {
    Asm a;
    a.movi(X0, 0x1000).movi(X2, 0x2000);
    a.ldr(X9, X0, 0);
    *skew_at = a.here();
    a.nops(n);
    a.label("poll");
    a.ldr(X3, X2, 0);
    a.ldr(X10, X0, 0);
    a.cbz(X3, "poll");
    a.halt();
    return a.take("poller");
  };
  std::uint32_t at = 0;
  const Program base = build(0, &at);
  for (std::uint32_t n : {0u, 1u, 16u, 256u}) {
    std::uint32_t unused = 0;
    EXPECT_EQ(insert_nops(base, at, n).serialize(),
              build(n, &unused).serialize())
        << n;
  }
}

}  // namespace
}  // namespace armbar::sim

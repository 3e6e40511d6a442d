// Coverage tests for the ISSUE 7 predecoder: every opcode must classify,
// and the per-op flags/operand-gate metadata the interpreter now trusts
// blindly must match the semantics the old per-cycle switches derived.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/isa.hpp"
#include "sim/program.hpp"

namespace armbar::sim {
namespace {

Instr instr_of(Op op) {
  Instr ins;
  ins.op = op;
  ins.rd = X1;
  ins.rn = X2;
  ins.rm = X3;
  ins.imm = 8;
  ins.target = 4;
  return ins;
}

TEST(Predecode, EveryOpcodeClassifiesAndDecodes) {
  std::set<OpClass> seen;
  for (std::uint32_t raw = 0; raw < kNumOps; ++raw) {
    const Op op = static_cast<Op>(raw);
    const MicroOp u = decode_instr(instr_of(op));
    EXPECT_EQ(u.op, op);
    EXPECT_EQ(u.cls, op_class(op));
    // Operands/immediates pass through untouched.
    EXPECT_EQ(u.rd, X1);
    EXPECT_EQ(u.rn, X2);
    EXPECT_EQ(u.rm, X3);
    EXPECT_EQ(u.imm, 8);
    EXPECT_EQ(u.target, 4u);
    seen.insert(u.cls);
  }
  // The ISA exercises every dispatch class (a class with no producer would
  // be dead code in Core::issue).
  EXPECT_EQ(seen.size(), 14u);
}

TEST(Predecode, ClassGroupsMatchIsaPredicates) {
  for (std::uint32_t raw = 0; raw < kNumOps; ++raw) {
    const Op op = static_cast<Op>(raw);
    const OpClass cls = op_class(op);
    EXPECT_EQ(cls == OpClass::kLoad, is_load(op)) << to_string(op);
    EXPECT_EQ(cls == OpClass::kStore || cls == OpClass::kStxr ||
                  cls == OpClass::kSwp,
              is_store(op))
        << to_string(op);
    EXPECT_EQ(cls == OpClass::kJump || cls == OpClass::kCondBranch,
              is_branch(op))
        << to_string(op);
    EXPECT_EQ(cls == OpClass::kCondBranch, is_conditional_branch(op))
        << to_string(op);
    const bool barrier_class = cls == OpClass::kIsb || cls == OpClass::kDmbLd ||
                               cls == OpClass::kDmbSt ||
                               cls == OpClass::kBlockingBarrier;
    // kBlockingBarrier covers exactly the DMB full + DSB family.
    EXPECT_EQ(barrier_class, is_barrier(op)) << to_string(op);
  }
}

TEST(Predecode, NonspecFlagMatchesIssueRules) {
  // The set of instructions that may never issue under an unresolved branch:
  // barriers, acquire/release/exclusive accesses, WFE, SWP and HALT.
  for (std::uint32_t raw = 0; raw < kNumOps; ++raw) {
    const Op op = static_cast<Op>(raw);
    const MicroOp u = decode_instr(instr_of(op));
    const bool expect_nonspec =
        is_barrier(op) || op == Op::kStxr || op == Op::kLdar ||
        op == Op::kLdapr || op == Op::kLdxr || op == Op::kStlr ||
        op == Op::kWfe || op == Op::kSwp || op == Op::kHalt;
    EXPECT_EQ((u.flags & kUopNonspec) != 0, expect_nonspec) << to_string(op);
  }
}

TEST(Predecode, FlavourFlagsAreExact) {
  auto flags = [](Op op) { return decode_instr(instr_of(op)).flags; };
  EXPECT_NE(flags(Op::kLdrIdx) & kUopIndexed, 0);
  EXPECT_NE(flags(Op::kStrIdx) & kUopIndexed, 0);
  EXPECT_EQ(flags(Op::kLdr) & kUopIndexed, 0);
  EXPECT_EQ(flags(Op::kStr) & kUopIndexed, 0);
  EXPECT_EQ(flags(Op::kStlr) & (kUopRelease | kUopNonspec),
            kUopRelease | kUopNonspec);
  EXPECT_EQ(flags(Op::kLdar) & (kUopAcqSc | kUopNonspec),
            kUopAcqSc | kUopNonspec);
  EXPECT_EQ(flags(Op::kLdapr) & (kUopAcqPc | kUopNonspec),
            kUopAcqPc | kUopNonspec);
  EXPECT_EQ(flags(Op::kLdxr) & (kUopExcl | kUopNonspec),
            kUopExcl | kUopNonspec);
  // No flavour bleeds onto plain ops.
  EXPECT_EQ(flags(Op::kLdr), 0);
  EXPECT_EQ(flags(Op::kAdd), 0);
  EXPECT_EQ(flags(Op::kB), 0);
}

TEST(Predecode, OperandGatesMatchOldReadiness) {
  // src1/src2 are the registers whose ready-cycle gated issue in the old
  // sources_ready() switch. XZR means "no constraint" (always ready).
  auto uop = [](Op op) { return decode_instr(instr_of(op)); };

  // Two-source ops gate on rn and rm.
  for (Op op : {Op::kAdd, Op::kSub, Op::kAnd, Op::kOrr, Op::kEor, Op::kLsl,
                Op::kLsr, Op::kMul, Op::kCmp, Op::kLdrIdx, Op::kStrIdx,
                Op::kStxr, Op::kSwp}) {
    EXPECT_EQ(uop(op).src1, X2) << to_string(op);
    EXPECT_EQ(uop(op).src2, X3) << to_string(op);
  }
  // Immediate / single-source ops gate on rn only.
  for (Op op : {Op::kMov, Op::kAddImm, Op::kSubImm, Op::kAndImm, Op::kOrrImm,
                Op::kEorImm, Op::kLslImm, Op::kLsrImm, Op::kCmpImm, Op::kLdr,
                Op::kLdar, Op::kLdapr, Op::kLdxr, Op::kStr, Op::kStlr}) {
    EXPECT_EQ(uop(op).src1, X2) << to_string(op);
    EXPECT_EQ(uop(op).src2, XZR) << to_string(op);
  }
  // Everything else gates on nothing. Conditional branches resolve their
  // condition through the speculation machinery, not the issue gate; a
  // store's *value* register is likewise tracked by the store buffer.
  for (Op op : {Op::kNop, Op::kHalt, Op::kWfe, Op::kMovImm, Op::kB, Op::kBeq,
                Op::kCbz, Op::kDmbFull, Op::kDmbSt, Op::kDmbLd, Op::kDsbFull,
                Op::kDsbSt, Op::kDsbLd, Op::kIsb}) {
    EXPECT_EQ(uop(op).src1, XZR) << to_string(op);
    EXPECT_EQ(uop(op).src2, XZR) << to_string(op);
  }
}

TEST(Predecode, DecodedProgramOwnsItsSource) {
  Asm a;
  a.movi(X0, 7).halt();
  ProgramHandle h = decode_program(a.take("owned"));
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->name(), "owned");
  EXPECT_EQ(h->size(), 2u);
  EXPECT_EQ(h->source().code.size(), 2u);
  EXPECT_EQ(h->uops()[0].op, Op::kMovImm);
  EXPECT_EQ(h->uops()[1].cls, OpClass::kHalt);
}

TEST(Predecode, NopRunCountsTheNopsAhead) {
  Asm a;
  a.nops(3).movi(X0, 1).nop().halt().nops(2);
  ProgramHandle h = decode_program(a.take("runs"));
  std::vector<std::uint32_t> runs;
  for (std::uint32_t pc = 0; pc < h->size(); ++pc)
    runs.push_back(h->uops()[pc].nop_run);
  EXPECT_EQ(runs, (std::vector<std::uint32_t>{3, 2, 1, 0, 1, 0, 2, 1}));
}

}  // namespace
}  // namespace armbar::sim

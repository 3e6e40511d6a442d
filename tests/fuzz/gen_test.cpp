// The fuzzer's generator invariants (see gen.hpp): determinism, bounded
// shapes, model-supported ops only, straight-line forward control flow,
// full observability of loads and touched memory.
#include "fuzz/gen.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/program.hpp"

namespace f = armbar::fuzz;
namespace m = armbar::model;
using armbar::sim::Instr;
using armbar::sim::Op;

namespace {

constexpr std::uint64_t kSweep = 300;  // seeds audited by the invariants

bool model_supported(Op op) {
  switch (op) {
    case Op::kWfe: case Op::kLdxr: case Op::kStxr: case Op::kSwp:
      return false;
    default:
      return true;
  }
}

TEST(FuzzGen, DeterministicAcrossCalls) {
  for (std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    const m::ConcurrentProgram a = f::generate(seed);
    const m::ConcurrentProgram b = f::generate(seed);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t)
      EXPECT_EQ(a.threads[t].serialize(), b.threads[t].serialize());
    EXPECT_EQ(a.init, b.init);
    EXPECT_EQ(a.observe_regs, b.observe_regs);
    EXPECT_EQ(a.observe_mem, b.observe_mem);
  }
}

TEST(FuzzGen, DistinctSeedsDiffer) {
  std::set<std::string> renderings;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    std::string s;
    for (const auto& t : f::generate(seed).threads) s += t.serialize();
    renderings.insert(std::move(s));
  }
  // Shape bias means collisions are possible but must be rare.
  EXPECT_GE(renderings.size(), 48u);
}

TEST(FuzzGen, ProgramsAreWellFormed) {
  for (std::uint64_t seed = 0; seed < kSweep; ++seed) {
    const m::ConcurrentProgram p = f::generate(seed);
    ASSERT_GE(p.threads.size(), 2u) << "seed " << seed;
    ASSERT_LE(p.threads.size(), f::GenOptions{}.max_threads) << "seed "
                                                             << seed;
    for (const auto& t : p.threads) {
      ASSERT_FALSE(t.code.empty());
      EXPECT_EQ(t.code.back().op, Op::kHalt) << "seed " << seed;
      for (std::size_t i = 0; i < t.code.size(); ++i) {
        const Instr& ins = t.code[i];
        EXPECT_TRUE(model_supported(ins.op)) << "seed " << seed;
        if (armbar::sim::is_branch(ins.op)) {
          // Forward-only: both the model's path enumeration and the
          // simulator terminate on any input.
          EXPECT_GT(ins.target, i) << "seed " << seed;
          EXPECT_LT(ins.target, t.code.size()) << "seed " << seed;
        }
      }
    }
  }
}

TEST(FuzzGen, LoadsObservedAndMemoryInitialized) {
  for (std::uint64_t seed = 0; seed < kSweep; ++seed) {
    const m::ConcurrentProgram p = f::generate(seed);
    std::set<std::pair<std::uint32_t, armbar::sim::Reg>> observed(
        p.observe_regs.begin(), p.observe_regs.end());
    for (std::uint32_t t = 0; t < p.threads.size(); ++t)
      for (const Instr& ins : p.threads[t].code)
        if (armbar::sim::is_load(ins.op)) {
          EXPECT_TRUE(observed.count({t, ins.rd}))
              << "seed " << seed << ": unobserved load target";
        }
    std::set<armbar::Addr> init;
    for (const auto& [a, v] : p.init) init.insert(a);
    const std::set<armbar::Addr> mem(p.observe_mem.begin(),
                                     p.observe_mem.end());
    EXPECT_EQ(init, mem) << "seed " << seed;
  }
}

// The opt-in lock-shape knob (ISSUE 9): off by default — identical output
// to unconfigured generation for every seed — and on at 100% it yields
// deterministic two-thread holder/waiter handoff programs.
TEST(FuzzGen, LockShapeKnob) {
  f::GenOptions off;  // defaults; lock_shape_pct == 0
  ASSERT_EQ(off.lock_shape_pct, 0u);
  f::GenOptions on = off;
  on.lock_shape_pct = 100;
  std::size_t two_thread = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const m::ConcurrentProgram base = f::generate(seed);
    const m::ConcurrentProgram same = f::generate(seed, off);
    ASSERT_EQ(base.threads.size(), same.threads.size()) << "seed " << seed;
    for (std::size_t t = 0; t < base.threads.size(); ++t)
      EXPECT_EQ(base.threads[t].serialize(), same.threads[t].serialize())
          << "seed " << seed << ": default-off knob changed the program";

    const m::ConcurrentProgram lk = f::generate(seed, on);
    const m::ConcurrentProgram lk2 = f::generate(seed, on);
    ASSERT_EQ(lk.threads.size(), lk2.threads.size()) << "seed " << seed;
    for (std::size_t t = 0; t < lk.threads.size(); ++t) {
      EXPECT_EQ(lk.threads[t].serialize(), lk2.threads[t].serialize())
          << "seed " << seed;
      for (const Instr& ins : lk.threads[t].code)
        EXPECT_TRUE(model_supported(ins.op)) << "seed " << seed;
    }
    // mutate() may append ops/threads, but the skeleton itself is 2-thread.
    if (lk.threads.size() == 2) ++two_thread;
  }
  EXPECT_GT(two_thread, 32u);  // the skeleton dominates at 100%
}

TEST(FuzzGen, SerializedProgramsRoundTrip) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const m::ConcurrentProgram p = f::generate(seed);
    for (const auto& t : p.threads) {
      armbar::sim::Program back;
      std::string err;
      ASSERT_TRUE(armbar::sim::parse_program(t.serialize(), &back, &err))
          << err;
      EXPECT_EQ(back.serialize(), t.serialize());
    }
  }
}

}  // namespace

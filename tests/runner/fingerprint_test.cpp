// Fingerprint: 128-bit content addressing of sweep-point inputs.
#include <gtest/gtest.h>

#include "runner/cache.hpp"
#include "runner/experiment.hpp"
#include "runner/fingerprint.hpp"
#include "sim/fault/fault.hpp"
#include "sim/platform.hpp"
#include "sim/program.hpp"
#include "sim/verify.hpp"

namespace armbar::runner {
namespace {

TEST(Fingerprint, HexIs32CharsAndStable) {
  Fingerprint a, b;
  a.mix(std::uint64_t{42}).mix("hello");
  b.mix(std::uint64_t{42}).mix("hello");
  EXPECT_EQ(a.hex().size(), 32u);
  EXPECT_EQ(a.hex(), b.hex());
}

TEST(Fingerprint, DifferentInputsDiffer) {
  Fingerprint a, b, c;
  a.mix(std::uint64_t{1});
  b.mix(std::uint64_t{2});
  c.mix(1.0);
  EXPECT_NE(a.hex(), b.hex());
  EXPECT_NE(a.hex(), c.hex());
}

TEST(Fingerprint, StringBoundariesMatter) {
  // Length-prefixing keeps {"ab","c"} and {"a","bc"} apart.
  Fingerprint a, b;
  a.mix("ab").mix("c");
  b.mix("a").mix("bc");
  EXPECT_NE(a.hex(), b.hex());
}

TEST(Fingerprint, OrderMatters) {
  Fingerprint a, b;
  a.mix(std::uint64_t{1}).mix(std::uint64_t{2});
  b.mix(std::uint64_t{2}).mix(std::uint64_t{1});
  EXPECT_NE(a.hex(), b.hex());
}

TEST(Fingerprint, PlatformSpecCoversLatencyKnobs) {
  const sim::PlatformSpec base = sim::kunpeng916();

  Fingerprint fp_base;
  fp_base.mix(base);

  // Any latency knob change must change the key (cache invalidation on
  // platform edits).
  sim::PlatformSpec tweaked = base;
  tweaked.lat.bus_sync += 1;
  Fingerprint fp_lat;
  fp_lat.mix(tweaked);
  EXPECT_NE(fp_base.hex(), fp_lat.hex());

  sim::PlatformSpec mca = base;
  mca.mca = !mca.mca;
  Fingerprint fp_mca;
  fp_mca.mix(mca);
  EXPECT_NE(fp_base.hex(), fp_mca.hex());

  sim::PlatformSpec sb = base;
  sb.lat.sb_entries += 8;
  Fingerprint fp_sb;
  fp_sb.mix(sb);
  EXPECT_NE(fp_base.hex(), fp_sb.hex());

  // And a same-valued copy keys identically.
  Fingerprint fp_copy;
  fp_copy.mix(sim::kunpeng916());
  EXPECT_EQ(fp_base.hex(), fp_copy.hex());
}

TEST(Fingerprint, ProgramCodeCoversInstructionFields) {
  auto build = [](std::uint32_t imm) {
    sim::Asm a;
    a.movi(sim::X0, imm);
    a.halt();
    return a.take("t");
  };
  const sim::Program p1 = build(1), p2 = build(2), p1b = build(1);
  Fingerprint f1, f2, f1b;
  f1.mix(p1);
  f2.mix(p2);
  f1b.mix(p1b);
  EXPECT_NE(f1.hex(), f2.hex());
  EXPECT_EQ(f1.hex(), f1b.hex());
}

TEST(Fingerprint, ProgramNameIsNotPartOfTheKey) {
  // Two identical instruction streams with different display names must
  // cache-hit each other: the name is presentation, not an input.
  auto build = [](const char* name) {
    sim::Asm a;
    a.movi(sim::X0, 7);
    a.halt();
    return a.take(name);
  };
  Fingerprint f1, f2;
  f1.mix(build("alpha"));
  f2.mix(build("beta"));
  EXPECT_EQ(f1.hex(), f2.hex());
}

TEST(Fingerprint, FaultPlanCoversEveryField) {
  // ISSUE 4 regression: a warm cache must never return fault-free results
  // for a faulted run — every FaultPlan field must perturb the key.
  const sim::fault::FaultPlan base = sim::fault::FaultPlan::chaos(1);
  Fingerprint fp_base;
  fp_base.mix(base);

  const auto differs = [&](auto tweak) {
    sim::fault::FaultPlan p = base;
    tweak(&p);
    Fingerprint fp;
    fp.mix(p);
    return fp.hex() != fp_base.hex();
  };
  using FP = sim::fault::FaultPlan;
  EXPECT_TRUE(differs([](FP* p) { p->seed ^= 1; }));
  EXPECT_TRUE(differs([](FP* p) { p->barrier_spike_pm += 1; }));
  EXPECT_TRUE(differs([](FP* p) { p->barrier_spike_cycles += 1; }));
  EXPECT_TRUE(differs([](FP* p) { p->coh_delay_pm += 1; }));
  EXPECT_TRUE(differs([](FP* p) { p->coh_delay_cycles += 1; }));
  EXPECT_TRUE(differs([](FP* p) { p->coh_duplicate_pm += 1; }));
  EXPECT_TRUE(differs([](FP* p) { p->evict_pm += 1; }));
  EXPECT_TRUE(differs([](FP* p) { p->sb_stall_pm += 1; }));
  EXPECT_TRUE(differs([](FP* p) { p->sb_stall_cycles += 1; }));

  // Same-valued plans key identically.
  Fingerprint fp_copy;
  fp_copy.mix(sim::fault::FaultPlan::chaos(1));
  EXPECT_EQ(fp_base.hex(), fp_copy.hex());
}

TEST(Fingerprint, ConcurrentProgramCoversEveryField) {
  // A verdict over a litmus-style program (lock_verify, barrier_opt) is
  // keyed on the whole program: editing a template must miss the cache.
  model::ConcurrentProgram base;
  base.name = "p";
  {
    sim::Asm a;
    a.movi(sim::X1, 0x100).ldr(sim::X2, sim::X1).halt();
    base.threads.push_back(a.take("t0"));
  }
  base.init = {{0x100, 0}};
  base.observe_regs = {{0, sim::X2}};
  base.observe_mem = {0x100};
  Fingerprint fp_base;
  fp_base.mix(base);

  using CP = model::ConcurrentProgram;
  const auto differs = [&](auto tweak) {
    CP p = base;
    tweak(&p);
    Fingerprint fp;
    fp.mix(p);
    return fp.hex() != fp_base.hex();
  };
  EXPECT_TRUE(differs([](CP* p) { p->name = "q"; }));
  EXPECT_TRUE(differs([](CP* p) { p->threads[0].code[1].op = sim::Op::kLdar; }));
  EXPECT_TRUE(differs([](CP* p) { p->threads.push_back(p->threads[0]); }));
  EXPECT_TRUE(differs([](CP* p) { p->init[0].first = 0x140; }));
  EXPECT_TRUE(differs([](CP* p) { p->init[0].second = 1; }));
  EXPECT_TRUE(differs([](CP* p) { p->observe_regs[0].first = 1; }));
  EXPECT_TRUE(differs([](CP* p) { p->observe_regs[0].second = sim::X3; }));
  EXPECT_TRUE(differs([](CP* p) { p->observe_mem[0] = 0x140; }));
  EXPECT_TRUE(differs([](CP* p) { p->observe_mem.push_back(0x140); }));

  Fingerprint fp_copy;
  fp_copy.mix(CP(base));
  EXPECT_EQ(fp_base.hex(), fp_copy.hex());
}

TEST(Fingerprint, ModelOptionsCoverEveryField) {
  const model::ModelOptions base;
  Fingerprint fp_base;
  fp_base.mix(base);
  using MO = model::ModelOptions;
  const auto differs = [&](auto tweak) {
    MO o = base;
    tweak(&o);
    Fingerprint fp;
    fp.mix(o);
    return fp.hex() != fp_base.hex();
  };
  EXPECT_TRUE(differs([](MO* o) { o->max_path_instructions += 1; }));
  EXPECT_TRUE(differs([](MO* o) { o->max_execs_per_thread += 1; }));
  EXPECT_TRUE(differs([](MO* o) { o->max_reads_per_thread += 1; }));
  EXPECT_TRUE(differs([](MO* o) { o->max_value_domain += 1; }));
  EXPECT_TRUE(differs([](MO* o) { o->max_candidates += 1; }));
  EXPECT_TRUE(differs([](MO* o) { o->naive = !o->naive; }));
}

TEST(Fingerprint, ContextKeyCoversGlobalFaultPlanAndVerifyCadence) {
  // The PR 3 RunConfig additions (global chaos plan, fault_seed, global
  // verify cadence) must all land in the experiment base key.
  const std::string clean = ExperimentContext::key().hex();

  sim::fault::set_global_fault_plan(sim::fault::FaultPlan::chaos(7));
  const std::string faulted7 = ExperimentContext::key().hex();
  sim::fault::set_global_fault_plan(sim::fault::FaultPlan::chaos(8));
  const std::string faulted8 = ExperimentContext::key().hex();
  sim::fault::clear_global_fault_plan();

  sim::set_global_verify_every(4096);
  const std::string verified = ExperimentContext::key().hex();
  sim::set_global_verify_every(8192);
  const std::string verified2 = ExperimentContext::key().hex();
  sim::set_global_verify_every(0);

  EXPECT_NE(clean, faulted7);
  EXPECT_NE(faulted7, faulted8);  // fault_seed alone changes the key
  EXPECT_NE(clean, verified);
  EXPECT_NE(verified, verified2);
  EXPECT_EQ(clean, ExperimentContext::key().hex());  // restored
}

TEST(Fingerprint, CacheEpochIsCurrent) {
  // The ISSUE 10 barrier optimizer bumps to /8: timing is verified
  // bit-identical, but the bump retires entries a mid-refactor build could
  // have written (ISSUE 7 fast-path interpreter killed /6, ISSUE 6
  // host-profiling killed /5, the ISSUE 5 POR checker killed /4, the
  // ISSUE 4 key-coverage change killed /2).
  EXPECT_STREQ(kCacheEpoch, "armbar-sim/8");
}

}  // namespace
}  // namespace armbar::runner

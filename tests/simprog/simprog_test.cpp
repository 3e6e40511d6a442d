// Experiment-generator tests: every simulated workload must run to
// completion, produce the correct architectural result (checksums /
// counters), and show the paper's qualitative orderings on a small scale.
#include <gtest/gtest.h>

#include "simprog/abstract_model.hpp"
#include "simprog/locks_sim.hpp"
#include "simprog/prodcons.hpp"

namespace armbar::simprog {
namespace {

const sim::PlatformSpec kServer = sim::kunpeng916();
const sim::PlatformSpec kMobile = sim::kirin960();

// ---- ordering emitters ----

TEST(Emitters, LoadAndStoreOpForEveryChoice) {
  using sim::Op;
  const struct {
    OrderChoice choice;
    Op load, store;
  } kCases[] = {
      {OrderChoice::kNone, Op::kLdr, Op::kStr},
      {OrderChoice::kDmbFull, Op::kLdr, Op::kStr},
      {OrderChoice::kDmbSt, Op::kLdr, Op::kStr},
      {OrderChoice::kDmbLd, Op::kLdr, Op::kStr},
      {OrderChoice::kDsbFull, Op::kLdr, Op::kStr},
      {OrderChoice::kDsbSt, Op::kLdr, Op::kStr},
      {OrderChoice::kDsbLd, Op::kLdr, Op::kStr},
      {OrderChoice::kIsb, Op::kLdr, Op::kStr},
      {OrderChoice::kLdar, Op::kLdar, Op::kStr},
      {OrderChoice::kLdapr, Op::kLdapr, Op::kStr},
      {OrderChoice::kStlr, Op::kLdr, Op::kStlr},
      {OrderChoice::kCtrlIsb, Op::kLdr, Op::kStr},
      {OrderChoice::kCtrl, Op::kLdr, Op::kStr},
      {OrderChoice::kDataDep, Op::kLdr, Op::kStr},
      {OrderChoice::kAddrDep, Op::kLdr, Op::kStr},
  };
  ASSERT_EQ(std::size(kCases),
            static_cast<std::size_t>(OrderChoice::kAddrDep) + 1);
  for (const auto& c : kCases) {
    sim::Asm a;
    emit_load(a, c.choice, sim::X1, sim::X2, 8);
    emit_store(a, c.choice, sim::X3, sim::X4, 16);
    const Program p = a.take("edges");
    ASSERT_EQ(p.code.size(), 2u) << to_string(c.choice);
    EXPECT_EQ(p.code[0].op, c.load) << to_string(c.choice);
    EXPECT_EQ(p.code[0].rd, sim::X1);
    EXPECT_EQ(p.code[0].rn, sim::X2);
    EXPECT_EQ(p.code[0].imm, 8);
    EXPECT_EQ(p.code[1].op, c.store) << to_string(c.choice);
    EXPECT_EQ(p.code[1].rd, sim::X3);
    EXPECT_EQ(p.code[1].rn, sim::X4);
    EXPECT_EQ(p.code[1].imm, 16);
  }
}

// ---- abstracted models ----

TEST(AbstractModel, IntrinsicRunsForAllBarriers) {
  for (auto c : {OrderChoice::kNone, OrderChoice::kDmbFull, OrderChoice::kDmbSt,
                 OrderChoice::kDmbLd, OrderChoice::kDsbFull, OrderChoice::kDsbSt,
                 OrderChoice::kDsbLd, OrderChoice::kIsb}) {
    Program p = make_intrinsic_model(c, 10, 100);
    EXPECT_GT(run_single(kServer, p, 100), 0.0) << to_string(c);
  }
}

TEST(AbstractModel, IntrinsicOrdering) {
  // Observation 1: No barrier >= DMB >> ISB >> DSB.
  auto thr = [&](OrderChoice c) {
    Program p = make_intrinsic_model(c, 10, 300);
    return run_single(kServer, p, 300);
  };
  const double none = thr(OrderChoice::kNone);
  const double dmb = thr(OrderChoice::kDmbFull);
  const double isb = thr(OrderChoice::kIsb);
  const double dsb = thr(OrderChoice::kDsbFull);
  EXPECT_GE(none, dmb * 0.99);
  EXPECT_GT(dmb, isb);
  EXPECT_GT(isb, dsb);
}

TEST(AbstractModel, StoreStoreLocationMatters) {
  // Observation 2 at the Fig 3 scale.
  const std::uint32_t nops = 150;
  Program p1 = make_store_store_model(OrderChoice::kDmbFull, BarrierLoc::kLoc1,
                                      nops, 300, kBufA, kBufB);
  Program p2 = make_store_store_model(OrderChoice::kDmbFull, BarrierLoc::kLoc2,
                                      nops, 300, kBufA, kBufB);
  const double t1 = run_pair(kServer, p1, 300, 0, 1);
  const double t2 = run_pair(kServer, p2, 300, 0, 1);
  EXPECT_GT(t2, 1.5 * t1);
}

TEST(AbstractModel, StlrBetweenDsbAndDmbSt) {
  // Observation 3: DSB full <= STLR <= DMB st in the store-store model.
  const std::uint32_t nops = 150;
  auto thr = [&](OrderChoice c, BarrierLoc l) {
    Program p = make_store_store_model(c, l, nops, 300, kBufA, kBufB);
    return run_pair(kServer, p, 300, 0, 1);
  };
  const double stlr = thr(OrderChoice::kStlr, BarrierLoc::kNone);
  const double dmbst = thr(OrderChoice::kDmbSt, BarrierLoc::kLoc1);
  const double dsb = thr(OrderChoice::kDsbFull, BarrierLoc::kLoc1);
  EXPECT_LE(stlr, dmbst * 1.05);
  EXPECT_GE(stlr, dsb * 0.95);
}

TEST(AbstractModel, LoadStoreDependenciesNearlyFree) {
  // Observation 6 at the Fig 5 scale.
  const std::uint32_t nops = 300;
  auto thr = [&](OrderChoice c, BarrierLoc l) {
    Program p = make_load_store_model(c, l, nops, 300, kBufA, kBufB);
    return run_pair(kServer, p, 300, 0, 32);
  };
  const double none = thr(OrderChoice::kNone, BarrierLoc::kNone);
  const double data = thr(OrderChoice::kDataDep, BarrierLoc::kNone);
  const double addr = thr(OrderChoice::kAddrDep, BarrierLoc::kNone);
  const double ctrl = thr(OrderChoice::kCtrl, BarrierLoc::kNone);
  const double dmbfull = thr(OrderChoice::kDmbFull, BarrierLoc::kLoc1);
  const double dsb = thr(OrderChoice::kDsbFull, BarrierLoc::kLoc1);
  EXPECT_GT(data, none * 0.9);
  EXPECT_GT(addr, none * 0.9);
  EXPECT_GT(ctrl, none * 0.9);
  EXPECT_GT(data, dmbfull);
  EXPECT_GT(dmbfull, dsb);
}

TEST(AbstractModel, CtrlIsbCostsMoreThanCtrl) {
  const std::uint32_t nops = 300;
  auto thr = [&](OrderChoice c) {
    Program p = make_load_store_model(c, BarrierLoc::kNone, nops, 300, kBufA, kBufB);
    return run_pair(kServer, p, 300, 0, 32);
  };
  EXPECT_GT(thr(OrderChoice::kCtrl), thr(OrderChoice::kCtrlIsb));
}

// ---- producer-consumer ----

TEST(ProdCons, ChecksumAllCombos) {
  for (auto combo : {
           ProdConsCombo{OrderChoice::kDmbFull, OrderChoice::kDmbFull, true},
           ProdConsCombo{OrderChoice::kDmbFull, OrderChoice::kDmbSt, true},
           ProdConsCombo{OrderChoice::kDmbLd, OrderChoice::kDmbSt, true},
           ProdConsCombo{OrderChoice::kLdar, OrderChoice::kDmbSt, true},
           ProdConsCombo{OrderChoice::kDmbFull, OrderChoice::kStlr, true},
           ProdConsCombo{OrderChoice::kDmbLd, OrderChoice::kNone, true},
       }) {
    auto r = run_prodcons(kServer, combo, 300, 40, 0, 1);
    EXPECT_TRUE(r.checksum_ok) << combo.name();
    EXPECT_GT(r.msgs_per_sec, 0.0);
  }
}

TEST(ProdCons, PilotChecksumSameAndCrossNode) {
  auto same = run_prodcons_pilot(kServer, 400, 40, 0, 1);
  EXPECT_TRUE(same.checksum_ok);
  auto cross = run_prodcons_pilot(kServer, 400, 40, 0, 32);
  EXPECT_TRUE(cross.checksum_ok);
  EXPECT_GT(same.msgs_per_sec, cross.msgs_per_sec);
}

TEST(ProdCons, BestComboIsLdSt) {
  // Fig 6a: DMB ld - DMB st beats DMB full - DMB full.
  auto ldst = run_prodcons(
      kServer, {OrderChoice::kDmbLd, OrderChoice::kDmbSt, true}, 400, 40, 0, 1);
  auto fullfull = run_prodcons(
      kServer, {OrderChoice::kDmbFull, OrderChoice::kDmbFull, true}, 400, 40, 0, 1);
  EXPECT_GT(ldst.msgs_per_sec, fullfull.msgs_per_sec);
}

TEST(ProdCons, PilotBeatsBestBarrierCombo) {
  // Fig 6b: Pilot improves on DMB ld - DMB st, dramatically across nodes.
  auto base = run_prodcons(
      kServer, {OrderChoice::kDmbLd, OrderChoice::kDmbSt, true}, 400, 40, 0, 32);
  auto pilot = run_prodcons_pilot(kServer, 400, 40, 0, 32);
  ASSERT_TRUE(base.checksum_ok);
  ASSERT_TRUE(pilot.checksum_ok);
  EXPECT_GT(pilot.msgs_per_sec, 1.3 * base.msgs_per_sec);
}

TEST(ProdCons, BatchChecksumsAndDecliningGain) {
  // Fig 6c: the speedup declines as the batch grows.
  auto b1 = run_batch(kServer, 1, 300, 0, 32);
  auto b16 = run_batch(kServer, 16, 300, 0, 32);
  const double s1 = b1.pilot / b1.baseline;
  const double s16 = b16.pilot / b16.baseline;
  EXPECT_GT(s1, 1.0);
  EXPECT_GT(s1, s16);
}

// ---- locks ----

TEST(TicketSim, CorrectAtVariousThreadCounts) {
  for (std::uint32_t threads : {1u, 2u, 8u, 16u}) {
    LockWorkload w;
    w.threads = threads;
    w.iters = 50;
    auto r = run_ticket(kServer, w, OrderChoice::kDmbFull);
    EXPECT_TRUE(r.correct) << threads << " threads";
    EXPECT_GT(r.acq_per_sec, 0.0);
  }
}

TEST(TicketSim, RemovingReleaseBarrierHelpsWithGlobalLines) {
  // Fig 7a: with 2 visited global lines, removing the unlock barrier wins.
  LockWorkload w;
  w.threads = 16;
  w.iters = 60;
  w.cs_lines = 2;
  auto normal = run_ticket(kServer, w, OrderChoice::kDmbFull);
  auto removed = run_ticket(kServer, w, OrderChoice::kNone);
  ASSERT_TRUE(normal.correct);
  ASSERT_TRUE(removed.correct);
  EXPECT_GT(removed.acq_per_sec, normal.acq_per_sec);
}

TEST(TicketSim, MobileWorksToo) {
  LockWorkload w;
  w.threads = 4;
  w.iters = 50;
  auto r = run_ticket(kMobile, w, OrderChoice::kDmbFull);
  EXPECT_TRUE(r.correct);
}

TEST(FfwdSim, CorrectPlainAndPilot) {
  LockWorkload w;
  w.threads = 8;
  w.iters = 40;
  auto plain = run_ffwd(kServer, w, {OrderChoice::kLdar, OrderChoice::kDmbSt, false});
  EXPECT_TRUE(plain.correct);
  auto pilot = run_ffwd(kServer, w, {OrderChoice::kLdar, OrderChoice::kDmbSt, true});
  EXPECT_TRUE(pilot.correct);
}

TEST(FfwdSim, AllRequestBarrierChoicesCorrect) {
  LockWorkload w;
  w.threads = 4;
  w.iters = 30;
  for (auto req : {OrderChoice::kDmbFull, OrderChoice::kDmbLd, OrderChoice::kLdar,
                   OrderChoice::kCtrlIsb, OrderChoice::kAddrDep}) {
    auto r = run_ffwd(kServer, w, {req, OrderChoice::kDmbSt, false});
    EXPECT_TRUE(r.correct) << to_string(req);
  }
}

TEST(FfwdSim, PilotFasterAtHighContention) {
  // Fig 7c flavour: no interval -> high contention; Pilot should win.
  LockWorkload w;
  w.threads = 16;
  w.iters = 40;
  auto plain = run_ffwd(kServer, w, {OrderChoice::kLdar, OrderChoice::kDmbSt, false});
  auto pilot = run_ffwd(kServer, w, {OrderChoice::kLdar, OrderChoice::kDmbSt, true});
  ASSERT_TRUE(plain.correct);
  ASSERT_TRUE(pilot.correct);
  EXPECT_GT(pilot.acq_per_sec, plain.acq_per_sec);
}

TEST(CcSynchSim, CorrectPlainAndPilot) {
  LockWorkload w;
  w.threads = 8;
  w.iters = 40;
  auto plain = run_ccsynch(kServer, w, {OrderChoice::kDmbSt, false, 64});
  EXPECT_TRUE(plain.correct);
  auto pilot = run_ccsynch(kServer, w, {OrderChoice::kDmbSt, true, 64});
  EXPECT_TRUE(pilot.correct);
}

TEST(CcSynchSim, SmallBudgetStillCorrect) {
  LockWorkload w;
  w.threads = 6;
  w.iters = 30;
  auto r = run_ccsynch(kServer, w, {OrderChoice::kDmbSt, false, 1});
  EXPECT_TRUE(r.correct);
  auto rp = run_ccsynch(kServer, w, {OrderChoice::kDmbSt, true, 1});
  EXPECT_TRUE(rp.correct);
}

TEST(CcSynchSim, PilotFasterAtHighContention) {
  LockWorkload w;
  w.threads = 16;
  w.iters = 40;
  auto plain = run_ccsynch(kServer, w, {OrderChoice::kDmbSt, false, 64});
  auto pilot = run_ccsynch(kServer, w, {OrderChoice::kDmbSt, true, 64});
  ASSERT_TRUE(plain.correct);
  ASSERT_TRUE(pilot.correct);
  EXPECT_GT(pilot.acq_per_sec, plain.acq_per_sec);
}

TEST(CnaSim, CorrectAtVariousThreadCounts) {
  for (std::uint32_t threads : {1u, 2u, 8u, 16u}) {
    LockWorkload w;
    w.threads = threads;
    w.iters = 40;
    auto r = run_cna(kServer, w, CnaChoice::of(Strength::kStrong));
    EXPECT_TRUE(r.correct) << threads << " threads";
    EXPECT_GT(r.acq_per_sec, 0.0);
  }
}

TEST(CnaSim, CrossSocketWithSmallCapStillCorrect) {
  // 36 cores on kunpeng916 spans both sockets, so the unlock path actually
  // scans, detaches remote waiters and splices them back at the cap.
  LockWorkload w;
  w.threads = 36;
  w.iters = 15;
  CnaChoice c = CnaChoice::of(Strength::kStrong);
  c.local_handoff_cap = 4;
  auto r = run_cna(kServer, w, c);
  EXPECT_TRUE(r.correct);
  CnaChoice weak = CnaChoice::of(Strength::kWeakened);
  weak.local_handoff_cap = 4;
  auto rw = run_cna(kServer, w, weak);
  EXPECT_TRUE(rw.correct);
}

TEST(CnaSim, WeakenedVariantUsesFewerBarriers) {
  // Table 3: LDAR/STLR on the handoff replaces the standalone dmb ld /
  // dmb ish pair, so the exact retired-barrier count must drop.
  LockWorkload w;
  w.threads = 8;
  w.iters = 40;
  auto strong = run_cna(kServer, w, CnaChoice::of(Strength::kStrong));
  auto weak = run_cna(kServer, w, CnaChoice::of(Strength::kWeakened));
  ASSERT_TRUE(strong.correct);
  ASSERT_TRUE(weak.correct);
  EXPECT_GT(strong.barriers, weak.barriers);
}

TEST(CnaSim, McsBaselineCorrectAndMobileWorks) {
  LockWorkload w;
  w.threads = 36;
  w.iters = 15;
  EXPECT_TRUE(run_cna(kServer, w, CnaChoice::mcs()).correct);
  LockWorkload mob;
  mob.threads = 4;
  mob.iters = 40;
  EXPECT_TRUE(run_cna(kMobile, mob, CnaChoice::of(Strength::kStrong)).correct);
}

TEST(LockSim, SingleThreadEdgeCases) {
  LockWorkload w;
  w.threads = 1;
  w.iters = 20;
  EXPECT_TRUE(run_ticket(kServer, w, OrderChoice::kDmbFull).correct);
  EXPECT_TRUE(run_cna(kServer, w, CnaChoice::of(Strength::kStrong)).correct);
  EXPECT_TRUE(run_ffwd(kServer, w, {OrderChoice::kLdar, OrderChoice::kDmbSt, false}).correct);
  EXPECT_TRUE(run_ccsynch(kServer, w, {OrderChoice::kDmbSt, false, 64}).correct);
  EXPECT_TRUE(run_ccsynch(kServer, w, {OrderChoice::kDmbSt, true, 64}).correct);
}

TEST(LockSim, ReadOnlyLinesLengthenCriticalSections) {
  LockWorkload base;
  base.threads = 8;
  base.iters = 30;
  LockWorkload heavy = base;
  heavy.cs_ro_lines = 24;
  auto fast = run_ccsynch(kServer, base, {OrderChoice::kDmbSt, false, 64});
  auto slow = run_ccsynch(kServer, heavy, {OrderChoice::kDmbSt, false, 64});
  ASSERT_TRUE(fast.correct);
  ASSERT_TRUE(slow.correct);
  EXPECT_GT(fast.acq_per_sec, slow.acq_per_sec);
}

}  // namespace
}  // namespace armbar::simprog

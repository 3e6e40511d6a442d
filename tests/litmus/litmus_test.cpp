// Litmus-suite assertions: which outcomes are reachable in WMM mode, and
// which are forbidden under TSO or with barriers (paper Table 1, §2.2,
// Table 3 rows).
#include <gtest/gtest.h>

#include "litmus/litmus.hpp"

namespace armbar::litmus {
namespace {

using sim::Op;

LitmusConfig server_config(bool tso = false) {
  LitmusConfig cfg;
  cfg.platform = sim::kunpeng916();
  cfg.binding = {0, 1};
  cfg.tso = tso;
  return cfg;
}

LitmusConfig cross_node_config() {
  LitmusConfig cfg;
  cfg.platform = sim::kunpeng916();
  cfg.binding = {0, 32};
  return cfg;
}

// ---- MP: the paper's Table 1 ----

TEST(LitmusMP, WeakOutcomeAllowedUnderWmm) {
  // Table 1: WMM allows local != 23.
  auto report = run_litmus(make_mp(Op::kNop), server_config());
  EXPECT_TRUE(report.saw({1, 0})) << report.str();
  EXPECT_TRUE(report.saw({1, 23})) << report.str();  // the strong outcome also occurs
}

TEST(LitmusMP, WeakOutcomeForbiddenUnderTso) {
  // Table 1: TSO forbids local != 23.
  auto report = run_litmus(make_mp(Op::kNop), server_config(/*tso=*/true));
  EXPECT_FALSE(report.saw({1, 0})) << report.str();
  EXPECT_TRUE(report.saw({1, 23})) << report.str();
}

TEST(LitmusMP, DmbStRestoresOrder) {
  auto report = run_litmus(make_mp(Op::kDmbSt), server_config());
  EXPECT_FALSE(report.saw({1, 0})) << report.str();
  EXPECT_TRUE(report.saw({1, 23})) << report.str();
}

TEST(LitmusMP, DmbFullRestoresOrder) {
  auto report = run_litmus(make_mp(Op::kDmbFull), server_config());
  EXPECT_FALSE(report.saw({1, 0})) << report.str();
}

TEST(LitmusMP, DsbRestoresOrder) {
  auto report = run_litmus(make_mp(Op::kDsbFull), server_config());
  EXPECT_FALSE(report.saw({1, 0})) << report.str();
}

TEST(LitmusMP, DmbLdOnProducerDoesNotOrderStores) {
  // DMB ld orders loads against later accesses; it does NOT order the
  // producer's two stores (Table 3: store->store needs DMB st).
  auto report = run_litmus(make_mp(Op::kDmbLd), server_config());
  EXPECT_TRUE(report.saw({1, 0})) << report.str();
}

TEST(LitmusMP, WeakOutcomeAlsoObservableAcrossNodes) {
  auto report = run_litmus(make_mp(Op::kNop), cross_node_config());
  EXPECT_TRUE(report.saw({1, 0})) << report.str();
}

TEST(LitmusMP, MobilePlatformAlsoWeak) {
  LitmusConfig cfg;
  cfg.platform = sim::kirin960();
  cfg.binding = {0, 1};
  auto report = run_litmus(make_mp(Op::kNop), cfg);
  EXPECT_TRUE(report.saw({1, 0})) << report.str();
}

// ---- SB: store buffering ----

TEST(LitmusSB, BothZeroAllowedWithoutBarrier) {
  auto report = run_litmus(make_sb(Op::kNop), server_config());
  EXPECT_TRUE(report.saw({0, 0})) << report.str();
}

TEST(LitmusSB, BothZeroAllowedEvenUnderTso) {
  // SB is the one relaxation TSO itself permits (store buffer bypass).
  auto report = run_litmus(make_sb(Op::kNop), server_config(/*tso=*/true));
  EXPECT_TRUE(report.saw({0, 0})) << report.str();
}

TEST(LitmusSB, DmbFullForbidsBothZero) {
  auto report = run_litmus(make_sb(Op::kDmbFull), server_config());
  EXPECT_FALSE(report.saw({0, 0})) << report.str();
}

TEST(LitmusSB, DsbForbidsBothZero) {
  auto report = run_litmus(make_sb(Op::kDsbFull), server_config());
  EXPECT_FALSE(report.saw({0, 0})) << report.str();
}

TEST(LitmusSB, DmbStDoesNotForbidBothZero) {
  // Table 3: ordering a store before a later *load* requires DMB full;
  // DMB st is not enough.
  auto report = run_litmus(make_sb(Op::kDmbSt), server_config());
  EXPECT_TRUE(report.saw({0, 0})) << report.str();
}

// ---- coherence & atomicity ----

TEST(LitmusCoherence, SameLocationNeverRegresses) {
  auto report = run_litmus(make_coherence(), server_config());
  for (const auto& [outcome, n] : report.histogram) {
    EXPECT_EQ(outcome[0], 0u) << report.str();
    (void)n;
  }
}

TEST(LitmusAtomicity, NoTorn64BitValues) {
  // The single-copy atomicity Pilot relies on (paper §4.3).
  auto report = run_litmus(make_atomicity(), server_config());
  for (const auto& [outcome, n] : report.histogram) {
    EXPECT_EQ(outcome[0], 0u) << report.str();
    (void)n;
  }
}

TEST(LitmusAtomicity, HoldsAcrossNodesToo) {
  auto report = run_litmus(make_atomicity(), cross_node_config());
  for (const auto& [outcome, n] : report.histogram) {
    EXPECT_EQ(outcome[0], 0u) << report.str();
    (void)n;
  }
}

// ---- harness mechanics ----

TEST(LitmusHarness, CountsRuns) {
  LitmusConfig cfg = server_config();
  cfg.max_skew = 32;
  cfg.skew_step = 16;
  auto report = run_litmus(make_mp(Op::kDmbSt), cfg);
  EXPECT_EQ(report.runs, 9u);  // 3 skews x 3 skews
}

TEST(LitmusHarness, ReportFormats) {
  LitmusConfig cfg = server_config();
  cfg.max_skew = 16;
  auto report = run_litmus(make_mp(Op::kDmbSt), cfg);
  const std::string s = report.str();
  EXPECT_NE(s.find("runs"), std::string::npos);
  EXPECT_NE(s.find("{1,23}"), std::string::npos);
}

}  // namespace
}  // namespace armbar::litmus

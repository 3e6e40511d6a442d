// Litmus shapes under fault injection: a FaultPlan perturbs timing only, so
// every outcome observed under faults must stay inside the architecturally
// allowed set of the shape — barriers keep forbidding what they forbid, and
// coherence/atomicity hold, no matter the seed. This is the core soundness
// argument for the fault engine: it widens schedules, never semantics.
#include <gtest/gtest.h>

#include "litmus/litmus.hpp"
#include "sim/fault/fault.hpp"

namespace armbar::litmus {
namespace {

using sim::Op;
using sim::fault::FaultPlan;

constexpr int kSeeds = 16;

// A reduced sweep: 16 plans x several shapes is a lot of machines; coarse
// skew steps keep the suite fast while every fault class still fires.
LitmusConfig fault_config(std::uint64_t seed) {
  LitmusConfig cfg;
  cfg.platform = sim::kunpeng916();
  cfg.binding = {0, 1};
  cfg.max_skew = 128;
  cfg.skew_step = 32;
  cfg.fault = FaultPlan::chaos(seed);
  return cfg;
}

TEST(LitmusFault, MpWithDmbStNeverWeakUnderAnySeed) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto report = run_litmus(make_mp(Op::kDmbSt), fault_config(seed));
    EXPECT_FALSE(report.saw({1, 0})) << "seed " << seed << "\n" << report.str();
    EXPECT_TRUE(report.saw({1, 23})) << "seed " << seed << "\n" << report.str();
  }
}

TEST(LitmusFault, MpBareOutcomesStayInAllowedSet) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto report = run_litmus(make_mp(Op::kNop), fault_config(seed));
    for (const auto& [outcome, n] : report.histogram) {
      ASSERT_EQ(outcome.size(), 2u);
      EXPECT_TRUE((outcome == Outcome{1, 0} || outcome == Outcome{1, 23}))
          << "seed " << seed << " produced impossible (flag, data) "
          << model::to_string(outcome);
    }
  }
}

TEST(LitmusFault, SbWithDmbNeverBothZero) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto report = run_litmus(make_sb(Op::kDmbFull), fault_config(seed));
    EXPECT_FALSE(report.saw({0, 0})) << "seed " << seed << "\n" << report.str();
  }
}

TEST(LitmusFault, CoherenceNeverRegresses) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto report = run_litmus(make_coherence(), fault_config(seed));
    EXPECT_FALSE(report.saw({1})) << "seed " << seed
                                  << ": same-location reads regressed";
  }
}

TEST(LitmusFault, StoresNeverTear) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto report = run_litmus(make_atomicity(), fault_config(seed));
    EXPECT_FALSE(report.saw({1})) << "seed " << seed
                                  << ": torn 64-bit value observed";
  }
}

TEST(LitmusFault, SamePlanReproducesTheExactHistogram) {
  const LitmusConfig cfg = fault_config(5);
  auto first = run_litmus(make_mp(Op::kNop), cfg);
  auto second = run_litmus(make_mp(Op::kNop), cfg);
  EXPECT_EQ(first.runs, second.runs);
  EXPECT_EQ(first.histogram, second.histogram)
      << first.str() << "vs\n" << second.str();
}

TEST(LitmusFault, DifferentSeedsPerturbTheSchedule) {
  // Not an architectural requirement, but if every seed produced the bare
  // MP histogram of the clean run, the injector would be a no-op. At least
  // one of the 16 chaos seeds must shift a count.
  LitmusConfig clean;
  clean.platform = sim::kunpeng916();
  clean.binding = {0, 1};
  clean.max_skew = 128;
  clean.skew_step = 32;
  const auto baseline = run_litmus(make_mp(Op::kNop), clean);
  bool any_shift = false;
  for (std::uint64_t seed = 1; seed <= kSeeds && !any_shift; ++seed) {
    auto report = run_litmus(make_mp(Op::kNop), fault_config(seed));
    any_shift = report.histogram != baseline.histogram;
  }
  EXPECT_TRUE(any_shift) << "no chaos seed changed any MP outcome count";
}

TEST(LitmusFault, VerifierRidesAlongCleanly) {
  // Faulted runs with the invariant verifier at a tight cadence: the
  // injector must never drive the machine into an illegal coherence state
  // (run_litmus would propagate the InvariantViolation).
  LitmusConfig cfg = fault_config(3);
  cfg.verify_every = 256;
  auto report = run_litmus(make_mp(Op::kNop), cfg);
  EXPECT_GT(report.runs, 0u);
}

}  // namespace
}  // namespace armbar::litmus

// Structural tests for the lockver scenario templates: inventory, name
// round-trips and the static per-handoff barrier accounting that the
// cna_scaling experiment's dynamic counts are checked against.
#include "lockver/templates.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sim/isa.hpp"
#include "sim/program.hpp"

namespace armbar::lockver {
namespace {

TEST(LockverTemplates, CleanInventory) {
  const auto all = all_clean_scenarios();
  ASSERT_EQ(all.size(), 6u);
  std::set<std::string> names;
  for (const LockScenario& sc : all) {
    EXPECT_TRUE(names.insert(sc.name).second) << sc.name;
    EXPECT_EQ(sc.planted, PlantedBug::kNone);
    EXPECT_FALSE(sc.prog.threads.empty()) << sc.name;
    EXPECT_FALSE(sc.invariants.empty()) << sc.name;
    EXPECT_FALSE(sc.prog.observe_regs.empty()) << sc.name;
    EXPECT_EQ(sc.prog.name, "lockver/" + sc.name);
    for (const Invariant& inv : sc.invariants) {
      EXPECT_FALSE(inv.name.empty()) << sc.name;
      EXPECT_TRUE(static_cast<bool>(inv.violated)) << sc.name;
    }
  }
  EXPECT_TRUE(names.count("ticket/strong"));
  EXPECT_TRUE(names.count("ticket/weakened"));
  EXPECT_TRUE(names.count("cna/strong"));
  EXPECT_TRUE(names.count("cna/weakened"));
  EXPECT_TRUE(names.count("ffwd/strong"));
  EXPECT_TRUE(names.count("ffwd/weakened"));
}

// The whole point of the paper's Table 3 weakenings: the weakened variant
// of every family spends strictly fewer standalone dmb instructions per
// handoff, and the exact counts are statically known (counted from the
// edge table's entry, HandoffEdges::dmbs()).
TEST(LockverTemplates, WeakeningRemovesBarriers) {
  const auto count = [](LockFamily f, Strength s) {
    return make_scenario(f, s).handoff_dmbs;
  };
  EXPECT_EQ(count(LockFamily::kTicket, Strength::kStrong), 2u);
  EXPECT_EQ(count(LockFamily::kTicket, Strength::kWeakened), 0u);
  EXPECT_EQ(count(LockFamily::kCna, Strength::kStrong), 2u);
  EXPECT_EQ(count(LockFamily::kCna, Strength::kWeakened), 0u);
  EXPECT_EQ(count(LockFamily::kFfwd, Strength::kStrong), 3u);
  EXPECT_EQ(count(LockFamily::kFfwd, Strength::kWeakened), 1u);
}

// Loads, stores and barriers of one thread, in program order.
std::string skeleton(const sim::Program& p) {
  std::string out;
  for (const sim::Instr& ins : p.code) {
    if (!sim::is_load(ins.op) && !sim::is_store(ins.op) &&
        !sim::is_barrier(ins.op))
      continue;
    if (!out.empty()) out += ' ';
    out += sim::op_token(ins.op);
  }
  return out;
}

// The templates verify the handoffs the simulator runs. Every strong
// acquire edge is a plain read and `dmb ishld`: the op run_ticket's spin,
// run_cna's strong spin and the FFWD client's spin execute after the read.
// Every strong release is `dmb ish` and a plain store, as in run_cna's
// strong grant and run_ticket's kDmbFull unlock; FFWD's line 4 keeps
// `dmb ish`. The weakened edges are LDAR/STLR, and FFWD's response
// `dmb ishst`, as in CnaChoice::of(kWeakened) and fig7b's LDAR - DMB st.
TEST(LockverTemplates, EdgesAreTheSimulatedLocksEdges) {
  const struct {
    const char* name;
    std::vector<std::string> threads;
  } kCases[] = {
      {"ticket/strong",
       {"str ldr dmb.ish str", "ldr dmb.ishld str dmb.ish str",
        "ldr dmb.ishld ldr ldr"}},
      {"ticket/weakened", {"str ldr stlr", "ldar str stlr", "ldar ldr ldr"}},
      {"cna/strong",
       {"str ldr str ldr ldr dmb.ish str", "ldr dmb.ishld ldr ldr str",
        "str dmb.ishst str"}},
      {"cna/weakened",
       {"str ldr str ldr ldr stlr", "ldar ldr ldr str", "str dmb.ishst str"}},
      {"ffwd/strong",
       {"str dmb.ishst str ldr dmb.ishld ldr",
        "ldr dmb.ish ldr str dmb.ish str"}},
      {"ffwd/weakened",
       {"str dmb.ishst str ldar ldr", "ldar ldr str dmb.ishst str"}},
  };
  for (const auto& c : kCases) {
    LockScenario sc;
    ASSERT_TRUE(scenario_by_name(c.name, &sc)) << c.name;
    ASSERT_EQ(sc.prog.threads.size(), c.threads.size()) << c.name;
    for (std::size_t t = 0; t < c.threads.size(); ++t)
      EXPECT_EQ(skeleton(sc.prog.threads[t]), c.threads[t])
          << c.name << " thread " << t;
  }
  const simprog::CnaChoice strong = simprog::CnaChoice::of(Strength::kStrong);
  EXPECT_EQ(strong.acquire_barrier, simprog::OrderChoice::kDmbLd);
  EXPECT_EQ(strong.release_barrier, simprog::OrderChoice::kDmbFull);
  const simprog::CnaChoice weak = simprog::CnaChoice::of(Strength::kWeakened);
  EXPECT_EQ(weak.acquire_barrier, simprog::OrderChoice::kLdar);
  EXPECT_EQ(weak.release_barrier, simprog::OrderChoice::kStlr);
}

TEST(LockverTemplates, NameRoundTrip) {
  for (LockFamily f :
       {LockFamily::kTicket, LockFamily::kCna, LockFamily::kFfwd}) {
    for (Strength s : {Strength::kStrong, Strength::kWeakened}) {
      for (PlantedBug b : {PlantedBug::kNone, PlantedBug::kDropAcquire,
                           PlantedBug::kDropRelease,
                           PlantedBug::kDowngradeDmb}) {
        const LockScenario sc = make_scenario(f, s, b);
        LockScenario back;
        ASSERT_TRUE(scenario_by_name(sc.name, &back)) << sc.name;
        EXPECT_EQ(back.family, f);
        EXPECT_EQ(back.strength, s);
        EXPECT_EQ(back.planted, b);
        EXPECT_EQ(back.name, sc.name);
        // The rebuilt program must be text-identical: scenario names are
        // the replay identity for repro bundles.
        ASSERT_EQ(back.prog.threads.size(), sc.prog.threads.size());
        for (std::size_t t = 0; t < sc.prog.threads.size(); ++t)
          EXPECT_EQ(back.prog.threads[t].serialize(),
                    sc.prog.threads[t].serialize())
              << sc.name << " thread " << t;
      }
    }
  }
}

TEST(LockverTemplates, ParseRejectsGarbage) {
  LockScenario sc;
  EXPECT_FALSE(scenario_by_name("", &sc));
  EXPECT_FALSE(scenario_by_name("ticket", &sc));
  EXPECT_FALSE(scenario_by_name("ticket/", &sc));
  EXPECT_FALSE(scenario_by_name("bogus/strong", &sc));
  EXPECT_FALSE(scenario_by_name("ticket/bogus", &sc));
  EXPECT_FALSE(scenario_by_name("ticket/strong+bogus", &sc));
  EXPECT_FALSE(scenario_by_name("ticket/strong+none+extra", &sc));
}

// Planted bugs must actually change the program text relative to the
// clean variant — otherwise the catch tests prove nothing.
TEST(LockverTemplates, PlantedBugsChangeTheProgram) {
  for (LockFamily f :
       {LockFamily::kTicket, LockFamily::kCna, LockFamily::kFfwd}) {
    for (Strength s : {Strength::kStrong, Strength::kWeakened}) {
      const LockScenario clean = make_scenario(f, s);
      for (PlantedBug b : {PlantedBug::kDropAcquire, PlantedBug::kDropRelease,
                           PlantedBug::kDowngradeDmb}) {
        const LockScenario buggy = make_scenario(f, s, b);
        bool differs = false;
        for (std::size_t t = 0; t < clean.prog.threads.size(); ++t)
          differs |= clean.prog.threads[t].serialize() !=
                     buggy.prog.threads[t].serialize();
        EXPECT_TRUE(differs) << buggy.name;
      }
    }
  }
}

}  // namespace
}  // namespace armbar::lockver

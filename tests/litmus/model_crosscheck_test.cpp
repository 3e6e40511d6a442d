// Cross-check of the Table 1 registry (src/litmus/shapes.hpp) against the
// hand-maintained table it replaced: the reference model's verdict on each
// shape's weak outcome, and whether the timing simulator exhibits it. The
// simulator's observed outcomes must also all fall inside the model's
// allowed set. The golden corpus (golden_corpus_test.cpp) pins the same
// facts on every platform preset; the hand table here is an independent
// witness for them.
#include "litmus/shapes.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/platform.hpp"

namespace armbar::litmus {
namespace {

struct HandRow {
  bool weak_allowed;    ///< the architecture allows the weak outcome
  bool sim_shows_weak;  ///< the timing simulator exhibits it
};

// The simulator is stronger than the architecture on LB, S and 2+2W
// (litmus.hpp "model fidelity"): weak-allowed rows it never shows.
const std::map<std::string, HandRow>& hand_table() {
  static const std::map<std::string, HandRow> rows = {
      {"MP", {true, true}},          {"MP+dmb.st", {false, false}},
      {"MP+dmb.full", {false, false}}, {"MP+dmb.ld", {true, true}},
      {"MP+dsb.full", {false, false}}, {"SB", {true, true}},
      {"SB+dmb.st", {true, true}},   {"SB+dmb.full", {false, false}},
      {"SB+rel-acq", {false, false}}, {"CoRR", {false, false}},
      {"LB", {true, false}},         {"LB+dmb.full", {false, false}},
      {"S", {true, false}},          {"S+dmb.st", {false, false}},
      {"2+2W", {true, false}},       {"2+2W+dmb.st", {false, false}},
  };
  return rows;
}

LitmusConfig sweep_cfg(std::size_t nthreads) {
  LitmusConfig cfg;
  cfg.platform = sim::kunpeng916();
  for (std::size_t t = 0; t < nthreads; ++t)
    cfg.binding.push_back(static_cast<CoreId>(t));
  return cfg;
}

class Table1Crosscheck : public ::testing::TestWithParam<std::string> {};

TEST_P(Table1Crosscheck, ModelAgreesWithLegacyTable) {
  const Table1Shape& s = table1_shape(GetParam());
  const HandRow& hand = hand_table().at(s.name);
  const model::OutcomeSet set = derive_allowed(s);
  EXPECT_EQ(set.allows(s.weak), hand.weak_allowed)
      << s.name << ": model says " << (set.allows(s.weak) ? "allowed" : "forbidden")
      << " but the hand table says " << (hand.weak_allowed ? "allowed" : "forbidden")
      << "\nmodel set: " << model::to_string(set);
}

TEST_P(Table1Crosscheck, SimulatorOutcomesAreAllModelAllowed) {
  const Table1Shape& s = table1_shape(GetParam());
  const HandRow& hand = hand_table().at(s.name);
  const model::OutcomeSet set = derive_allowed(s);
  const LitmusReport rep =
      run_litmus(s.sim, sweep_cfg(s.sim.prog.threads.size()));

  // Soundness: every outcome the simulator produced must be model-allowed.
  for (const auto& [o, n] : rep.histogram) {
    EXPECT_TRUE(set.allows(o))
        << s.name << ": simulator outcome " << model::to_string(o) << " (x"
        << n << ") is outside the model's allowed set\n"
        << model::to_string(set);
  }

  // The hand table's "does the simulator exhibit the weak outcome" column.
  EXPECT_EQ(rep.saw(s.weak), hand.sim_shows_weak) << s.name << "\n" << rep.str();

  // A simulator-weak shape must be model-weak (the converse is the
  // documented strengthening set: LB, S, 2+2W).
  if (hand.sim_shows_weak) {
    EXPECT_TRUE(hand.weak_allowed) << s.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Table1Crosscheck,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& s : table1_shapes()) names.push_back(s.name);
      return names;
    }()),
    [](const auto& pinfo) {
      std::string id = pinfo.param;
      for (char& c : id)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return id;
    });

TEST(Table1Registry, CoversTheTable1Rows) {
  // The registry must keep covering at least the Table 1 MP rows and the
  // supporting shapes bench/table1_litmus.cpp prints.
  for (const char* name :
       {"MP", "MP+dmb.st", "MP+dmb.full", "MP+dmb.ld", "MP+dsb.full", "SB",
        "SB+dmb.full", "CoRR"})
    EXPECT_NO_FATAL_FAILURE((void)table1_shape(name)) << name;
  EXPECT_GE(table1_shapes().size(), 8u);
}

TEST(Table1Registry, DerivedSetsAreExactAndSane) {
  for (const auto& s : table1_shapes()) {
    const model::OutcomeSet set = derive_allowed(s);
    EXPECT_TRUE(set.complete) << s.name;
    EXPECT_FALSE(set.allowed.empty()) << s.name;
    // Outcome arity matches the observation lists, in both forms.
    const std::size_t arity =
        s.model_prog.observe_regs.size() + s.model_prog.observe_mem.size();
    for (const auto& o : set.allowed) EXPECT_EQ(o.size(), arity) << s.name;
    EXPECT_EQ(s.weak.size(), arity) << s.name;
    EXPECT_EQ(s.sim.prog.observe_regs.size() + s.sim.prog.observe_mem.size(),
              arity)
        << s.name;
  }
}

TEST(Table1Registry, ModelReadsTheSimulatedProgram) {
  // One form per shape: the model enumerates exactly what the simulator
  // sweeps, except MP, whose poll loop the model cannot enumerate.
  for (const auto& s : table1_shapes()) {
    const model::ConcurrentProgram& sim = s.sim.prog;
    ASSERT_EQ(s.sim.skew_at.size(), sim.threads.size()) << s.name;
    if (sim.name == "MP") continue;
    const model::ConcurrentProgram& mod = s.model_prog;
    EXPECT_EQ(mod.name, sim.name) << s.name;
    ASSERT_EQ(mod.threads.size(), sim.threads.size()) << s.name;
    for (std::size_t t = 0; t < sim.threads.size(); ++t)
      EXPECT_EQ(mod.threads[t].serialize(), sim.threads[t].serialize())
          << s.name << " thread " << t;
    EXPECT_EQ(mod.init, sim.init) << s.name;
    EXPECT_EQ(mod.observe_regs, sim.observe_regs) << s.name;
    EXPECT_EQ(mod.observe_mem, sim.observe_mem) << s.name;
  }
}

}  // namespace
}  // namespace armbar::litmus

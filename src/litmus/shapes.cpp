#include "litmus/shapes.hpp"

#include "common/check.hpp"

namespace armbar::litmus {

using sim::Asm;
using sim::Op;
using namespace sim;  // registers X0..X30

namespace {

// Same locations make_mp uses (litmus.cpp).
constexpr Addr kData = 0x1000;
constexpr Addr kFlag = 0x2000;

// MP, model form. The producer is the sim producer minus its line-ownership
// warm-up (pure timing, invisible to the model); the consumer is the
// straight-line form of the sim's poll (see the header comment).
// Outcome = (flag, data); weak = (1, 0).
model::ConcurrentProgram mp_model(Op producer_barrier) {
  model::ConcurrentProgram p;
  p.name = "MP";
  {
    Asm a;
    a.movi(X0, kData).movi(X2, kFlag).movi(X3, 23).movi(X4, 1);
    a.str(X3, X0, 0);
    if (producer_barrier != Op::kNop) a.emit({producer_barrier});
    a.str(X4, X2, 0);
    a.halt();
    p.threads.push_back(a.take("mp-producer"));
  }
  {
    Asm a;
    a.movi(X0, kData).movi(X2, kFlag);
    a.ldr(X3, X2, 0);   // flag
    a.dmb_ld();         // the poll consumer is at least this strong
    a.ldr(X10, X0, 0);  // data
    a.halt();
    p.threads.push_back(a.take("mp-consumer"));
  }
  p.observe_regs = {{1, X3}, {1, X10}};
  p.init = {{kData, 0}, {kFlag, 0}};
  return p;
}

std::vector<Table1Shape> build_shapes() {
  std::vector<Table1Shape> rows;
  // Table 1 proper: store->store order needs dmb.st / dmb.full / dsb;
  // dmb.ld between the stores orders nothing the shape needs.
  for (const auto& [name, b] :
       {std::pair{"MP", Op::kNop}, std::pair{"MP+dmb.st", Op::kDmbSt},
        std::pair{"MP+dmb.full", Op::kDmbFull},
        std::pair{"MP+dmb.ld", Op::kDmbLd},
        std::pair{"MP+dsb.full", Op::kDsbFull}})
    rows.push_back({name, make_mp(b), mp_model(b), {1, 0}});

  // Every other shape: the model enumerates the program the simulator
  // sweeps.
  auto add = [&](std::string name, Litmus sim, model::Outcome weak) {
    model::ConcurrentProgram prog = sim.prog;
    rows.push_back({std::move(name), std::move(sim), std::move(prog),
                    std::move(weak)});
  };
  // dmb.st orders store->store only; SB needs the full barrier.
  add("SB", make_sb(Op::kNop), {0, 0});
  add("SB+dmb.st", make_sb(Op::kDmbSt), {0, 0});
  add("SB+dmb.full", make_sb(Op::kDmbFull), {0, 0});
  // [L]; po; [A] in bob: RCsc forbids (0,0) without a fence.
  add("SB+rel-acq", make_sb_rel_acq(), {0, 0});
  add("CoRR", make_corr(), {2, 1});  // second same-location read regresses

  // The documented simulator strengthenings: architecturally weak shapes
  // the timing simulator never exhibits, because load values are sampled
  // at issue / same-line writes serialize in request order (litmus.hpp
  // "model fidelity").
  add("LB", make_lb(Op::kNop), {1, 1});
  add("LB+dmb.full", make_lb(Op::kDmbFull), {1, 1});
  add("S", make_s(Op::kNop), {1, 2});
  add("S+dmb.st", make_s(Op::kDmbSt), {1, 2});
  add("2+2W", make_2p2w(Op::kNop), {1, 3});
  add("2+2W+dmb.st", make_2p2w(Op::kDmbSt), {1, 3});
  return rows;
}

}  // namespace

const std::vector<Table1Shape>& table1_shapes() {
  static const std::vector<Table1Shape> shapes = build_shapes();
  return shapes;
}

const Table1Shape& table1_shape(const std::string& name) {
  for (const Table1Shape& s : table1_shapes())
    if (s.name == name) return s;
  ARMBAR_CHECK_MSG(false, "unknown Table 1 shape");
  __builtin_unreachable();
}

model::OutcomeSet derive_allowed(const Table1Shape& s) {
  model::OutcomeSet set = model::enumerate_outcomes(s.model_prog);
  ARMBAR_CHECK_MSG(set.ok(), "Table 1 shape failed to enumerate");
  ARMBAR_CHECK_MSG(set.complete, "Table 1 shape hit a model budget cap");
  return set;
}

bool model_allows_weak(const Table1Shape& s) {
  return derive_allowed(s).allows(s.weak);
}

}  // namespace armbar::litmus

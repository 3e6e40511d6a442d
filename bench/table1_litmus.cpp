// Table 1 — message-passing litmus: TSO forbids local != 23, WMM allows it.
// Also prints the wider litmus suite (SB, coherence, atomicity) as the
// supporting evidence for §2. Litmus reports carry full outcome
// histograms, so the runs stay uncached; they still fan out via ctx.map.
//
// Since ISSUE 4 the WMM allowed/forbidden column is *derived* from the
// axiomatic reference model (litmus/shapes.hpp) rather than hand-coded:
// each check below compares what the simulator observed against what the
// model enumerates for the same shape. Only the TSO row stays hand-coded —
// the reference model is ARMv8-only.
#include <vector>

#include "experiment_util.hpp"
#include "litmus/litmus.hpp"
#include "litmus/shapes.hpp"

using namespace armbar;
using namespace armbar::litmus;

namespace {

LitmusConfig cfg(bool tso, CoreId c1 = 1) {
  LitmusConfig c;
  c.platform = sim::kunpeng916();
  c.binding = {CoreId{0}, c1};
  c.tso = tso;
  return c;
}

// The slice of a litmus report each check below needs.
struct LitSummary {
  bool weak = false;           // the shape's relaxed outcome was observed
  std::uint64_t runs = 0;
  std::uint64_t weak_count = 0;
  bool invariant_ok = true;    // coherence / atomicity: no forbidden outcome
};

}  // namespace

ARMBAR_EXPERIMENT(table1_litmus, "Table 1",
                  "MP litmus under TSO vs WMM (+ supporting shapes)") {
  // Points 0-4: the MP rows. Points 5-8: SB, SB+DMB full, CoRR, tearing.
  const std::vector<LitSummary> res = ctx.map(9, [&](std::size_t i) {
    LitSummary s;
    auto mp = [&](sim::Op b, bool tso) {
      auto rep = run_litmus(make_mp(b), cfg(tso));
      s.weak = rep.saw({1, 0});
      s.runs = rep.runs;
      s.weak_count = rep.count({1, 0});
    };
    switch (i) {
      case 0: mp(sim::Op::kNop, false); break;
      case 1: mp(sim::Op::kNop, true); break;
      case 2: mp(sim::Op::kDmbSt, false); break;
      case 3: mp(sim::Op::kDmbFull, false); break;
      case 4: mp(sim::Op::kDmbLd, false); break;
      case 5: s.weak = run_litmus(make_sb(sim::Op::kNop), cfg(false)).saw({0, 0}); break;
      case 6: s.weak = run_litmus(make_sb(sim::Op::kDmbFull), cfg(false)).saw({0, 0}); break;
      case 7: {
        auto rep = run_litmus(make_coherence(), cfg(false));
        for (auto& [o, n] : rep.histogram) s.invariant_ok = s.invariant_ok && o[0] == 0;
        break;
      }
      default: {
        auto rep = run_litmus(make_atomicity(), cfg(false, 32));
        for (auto& [o, n] : rep.histogram) s.invariant_ok = s.invariant_ok && o[0] == 0;
        break;
      }
    }
    return s;
  });

  TextTable t("Table 1 — MP: T1 stores data=23 then flag; T2 polls flag, reads data");
  t.header({"model", "barrier", "outcome local!=23", "runs", "weak count"});
  const std::vector<std::pair<const char*, const char*>> mp_rows = {
      {"WMM", "none"}, {"TSO", "none"}, {"WMM", "DMB st"},
      {"WMM", "DMB full"}, {"WMM", "DMB ld"}};
  for (std::size_t i = 0; i < mp_rows.size(); ++i) {
    t.row({mp_rows[i].first, mp_rows[i].second,
           res[i].weak ? "OBSERVED (allowed)" : "never (forbidden)",
           std::to_string(res[i].runs), std::to_string(res[i].weak_count)});
  }
  t.note("paper Table 1: TSO forbids local != 23; WMM allows it");
  t.print();

  TextTable s("Supporting litmus shapes (kunpeng916 model)");
  s.header({"shape", "relaxed outcome", "status"});
  s.row({"SB (store buffering)", "(0,0)",
         res[5].weak ? "OBSERVED (allowed)" : "never"});
  s.row({"SB + DMB full", "(0,0)",
         res[6].weak ? "OBSERVED" : "never (forbidden)"});
  s.row({"CoRR (coherence)", "value regression",
         res[7].invariant_ok ? "never (forbidden)" : "OBSERVED"});
  s.row({"64-bit tearing", "torn read",
         res[8].invariant_ok ? "never (single-copy atomic)" : "OBSERVED"});
  s.print();

  // WMM rows: the expectation is the reference model's verdict on the same
  // shape. A forbidden row must never be observed; an allowed row must be
  // (the golden litmus corpus pins which rows the simulator exhibits).
  auto model_weak = [](const char* shape) {
    return model_allows_weak(table1_shape(shape));
  };
  ctx.check(res[0].weak == model_weak("MP"),
            "WMM allows local != 23 (model-derived, Table 1)");
  ctx.check(!res[1].weak, "TSO forbids local != 23 (Table 1, hand-coded)");
  ctx.check(res[2].weak == model_weak("MP+dmb.st"),
            "DMB st between the stores forbids the weak outcome (model-derived)");
  ctx.check(res[3].weak == model_weak("MP+dmb.full"),
            "DMB full forbids the weak outcome (model-derived)");
  ctx.check(res[4].weak == model_weak("MP+dmb.ld"),
            "DMB ld does NOT order store->store (model-derived, Table 3)");
  ctx.check(res[5].weak == model_weak("SB"),
            "SB relaxed outcome observable (model-derived)");
  ctx.check(res[6].weak == model_weak("SB+dmb.full"),
            "DMB full forbids SB relaxed outcome (model-derived)");
  ctx.check(!model_allows_weak(table1_shape("CoRR")),
            "model forbids same-location read regression");
  ctx.check(!model_allows_weak(table1_shape("SB+rel-acq")),
            "model forbids SB relaxed outcome under STLR/LDAR (RCsc, fuzz-found)");
  ctx.check(res[7].invariant_ok, "coherence: same-location reads never regress");
  ctx.check(res[8].invariant_ok, "single-copy atomicity (Pilot's foundation) holds");
}

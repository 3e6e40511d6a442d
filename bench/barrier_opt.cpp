// Barrier-optimization experiment (ISSUE 10): run the src/opt pass
// pipeline — axiomatic-checker-verified barrier weakening — over the three
// program sources the paper's argument rests on, and price the accepted
// rewrites in simulated cycles on every platform preset:
//
//   * the Table-1 litmus shapes (the paper's §2 evidence corpus),
//   * the PR-9 strong lock handoff templates, where the pass must
//     rediscover at least the paper's Table-3 weakenings (ticket/CNA/FFWD
//     handoffs end up no stronger than the hand-weakened templates),
//   * fuzz-generated programs (seeds 1..8, the ci.sh smoke seed range).
//
// Every accepted rewrite carries a per-rewrite allowed-outcome-set
// equality proof (see src/opt/driver.hpp); this experiment re-prices the
// verified programs on the timing simulator and gates on the paper's
// economic claim: weakening saves cycles on every modeled platform.
//
// The full decision log lands in the report as the armbar.opt.report/v1
// section (ctx.note_opt_report), validated by report_check.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "experiment_util.hpp"
#include "fuzz/gen.hpp"
#include "litmus/shapes.hpp"
#include "lockver/templates.hpp"
#include "opt/driver.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"
#include "trace/json_report.hpp"

using namespace armbar;
using bench::json_num;
using runner::ExperimentContext;
using runner::Fingerprint;

namespace {

struct Entry {
  std::string source;  // "litmus" | "lock" | "fuzz"
  model::ConcurrentProgram prog;
  /// Standalone-barrier count of the hand-weakened counterpart (lock
  /// templates only): the Table-3 parity bar the optimizer must clear.
  std::int64_t weakened_barriers = -1;
};

/// One deterministic timing-sim run; the programs here all halt.
double run_cycles(const sim::PlatformSpec& spec,
                  const model::ConcurrentProgram& prog) {
  sim::Machine m(spec, 1u << 20);
  for (const auto& [addr, v] : prog.init) m.mem().poke(addr, v);
  for (std::size_t t = 0; t < prog.threads.size(); ++t)
    m.load_program(static_cast<CoreId>(t), prog.threads[t]);
  sim::RunConfig rc;
  rc.max_cycles = 10'000'000;
  const sim::RunResult rr = m.run(rc);
  return rr.completed ? static_cast<double>(rr.cycles) : -1.0;
}

/// Every OptOptions field lands in the cache key (ISSUE 10 small fix): a
/// pass-pipeline change must miss, never resurrect a stale decision.
void mix_opt_config(Fingerprint* key, const opt::OptOptions& o) {
  key->mix("opt-config");
  key->mix(static_cast<std::uint32_t>(o.passes.size()));
  for (const std::string& p : o.passes) key->mix(p);
  key->mix(o.max_oracle_calls)
      .mix(static_cast<std::uint32_t>(o.final_verify))
      .mix(static_cast<std::uint32_t>(o.plant))
      .mix(o.model);
}

}  // namespace

ARMBAR_EXPERIMENT(barrier_opt, "Barrier opt",
                  "axiomatic-checker-verified barrier weakening, priced in "
                  "simulated cycles per platform") {
  const opt::OptOptions opts;  // all passes, POR oracle
  const std::vector<sim::PlatformSpec> platforms = sim::all_platforms();

  // ---- corpus: litmus shapes + strong lock templates + fuzz seeds ----
  std::vector<Entry> corpus;
  for (const litmus::Table1Shape& s : litmus::table1_shapes()) {
    Entry e;
    e.source = "litmus";
    e.prog = s.model_prog;
    e.prog.name = s.name;
    corpus.push_back(std::move(e));
  }
  for (lockver::LockFamily f :
       {lockver::LockFamily::kTicket, lockver::LockFamily::kCna,
        lockver::LockFamily::kFfwd}) {
    Entry e;
    e.source = "lock";
    lockver::LockScenario strong =
        lockver::make_scenario(f, lockver::Strength::kStrong);
    e.prog = strong.prog;
    e.prog.name = strong.name;
    e.weakened_barriers = opt::count_standalone_barriers(
        lockver::make_scenario(f, lockver::Strength::kWeakened).prog);
    corpus.push_back(std::move(e));
  }
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    Entry e;
    e.source = "fuzz";
    e.prog = fuzz::generate(seed, {});
    corpus.push_back(std::move(e));
  }
  ctx.param("corpus", std::to_string(corpus.size()) +
                          " programs (16 litmus + 3 lock + 8 fuzz)");
  ctx.param("oracle", opts.model.naive ? "naive" : "por");

  // ---- optimize + price every program (one cached point each) ----
  const auto rows = ctx.map(corpus.size(), [&](std::size_t i) {
    const Entry& e = corpus[i];
    Fingerprint key = ExperimentContext::key();
    key.mix("barrier_opt/v1");
    mix_opt_config(&key, opts);
    key.mix(e.prog);
    return ctx.cached(key, "opt " + e.prog.name, [&] {
      const opt::OptResult r = opt::optimize(e.prog, opts);
      trace::Json row = trace::Json::object();
      row.set("name", e.prog.name);
      row.set("valid", r.model_valid);
      row.set("verified", r.verified_equal);
      row.set("attempted", static_cast<std::uint64_t>(r.attempted));
      row.set("accepted", static_cast<std::uint64_t>(r.accepted));
      row.set("restored", static_cast<std::uint64_t>(r.restored));
      row.set("before", static_cast<std::uint64_t>(r.barriers_before));
      row.set("after", static_cast<std::uint64_t>(r.barriers_after));
      for (const sim::PlatformSpec& spec : platforms) {
        if (spec.total_cores() < r.original.threads.size()) continue;
        row.set(spec.name + "_orig", run_cycles(spec, r.original));
        row.set(spec.name + "_opt", run_cycles(spec, r.optimized));
      }
      // The per-program section entry, verbatim — the experiment report
      // carries the full decision log, not just the counters.
      row.set("report", opt::opt_report_json({r}).find("programs")->items()[0]);
      return row;
    });
  });

  // ---- aggregate: per-preset savings, MP+dmb.full gate, Table-3 parity --
  TextTable t("Verified barrier weakening — cycles saved per platform");
  {
    std::vector<std::string> head = {"program", "barriers", "acc/res"};
    for (const sim::PlatformSpec& spec : platforms) head.push_back(spec.name);
    t.header(head);
  }
  double attempted = 0, accepted = 0, restored = 0, eliminated = 0;
  std::size_t unverified = 0;
  std::vector<double> preset_saved(platforms.size(), 0.0);
  double mp_eliminated = 0, mp_min_saved = 0;
  bool mp_seen = false;
  trace::Json programs = trace::Json::array();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const trace::Json& row = rows[i];
    if (!bench::json_bool(row, "valid")) {
      ctx.fatal("model rejected corpus program '" +
                row.find("name")->str() + "'");
    }
    if (!bench::json_bool(row, "verified")) ++unverified;
    attempted += json_num(row, "attempted");
    accepted += json_num(row, "accepted");
    restored += json_num(row, "restored");
    const double before = json_num(row, "before");
    const double after = json_num(row, "after");
    eliminated += before - after;
    std::vector<std::string> cells = {
        row.find("name")->str(),
        TextTable::num(before, 0) + " -> " + TextTable::num(after, 0),
        TextTable::num(json_num(row, "accepted"), 0) + "/" +
            TextTable::num(json_num(row, "restored"), 0)};
    double row_min_saved = 0;
    bool row_min_set = false;
    for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
      const trace::Json* orig = row.find(platforms[pi].name + "_orig");
      if (orig == nullptr) {  // preset has fewer cores than threads
        cells.push_back("-");
        continue;
      }
      const double saved =
          orig->number() - json_num(row, (platforms[pi].name + "_opt").c_str());
      preset_saved[pi] += saved;
      cells.push_back(TextTable::num(saved, 0));
      if (!row_min_set || saved < row_min_saved) {
        row_min_saved = saved;
        row_min_set = true;
      }
    }
    t.row(cells);
    if (row.find("name")->str() == "MP+dmb.full") {
      mp_seen = true;
      mp_eliminated = before - after;
      mp_min_saved = row_min_saved;
    }
    programs.push(*row.find("report"));
  }
  t.note("cycles saved = original - optimized on one deterministic run;");
  t.note("'-' marks presets with fewer cores than program threads");
  t.print();

  // Table-3 parity: each optimized strong handoff must end up with no more
  // standalone barriers than the paper's hand-weakened template.
  std::size_t parity = 0;
  TextTable p("Table-3 parity — optimizer vs the paper's hand weakenings");
  p.header({"handoff", "strong", "optimized", "hand-weakened", "verdict"});
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].weakened_barriers < 0) continue;
    const double after = json_num(rows[i], "after");
    const bool ok = after <= static_cast<double>(corpus[i].weakened_barriers);
    if (ok) ++parity;
    p.row({corpus[i].prog.name, TextTable::num(json_num(rows[i], "before"), 0),
           TextTable::num(after, 0),
           TextTable::num(static_cast<double>(corpus[i].weakened_barriers), 0),
           ok ? "parity" : "MISSED"});
  }
  p.note("the pass rediscovers the published weakenings from the strong");
  p.note("templates alone — the oracle, not Table 3, made the decisions");
  p.print();

  // Full decision log -> report section (armbar.opt.report/v1).
  trace::Json totals = trace::Json::object();
  totals.set("programs", static_cast<std::uint64_t>(rows.size()));
  totals.set("rewrites_attempted", attempted);
  totals.set("rewrites_accepted", accepted);
  totals.set("rewrites_restored", restored);
  totals.set("barriers_eliminated", eliminated);
  trace::Json section = trace::Json::object();
  section.set("schema", trace::kOptReportSchema);
  section.set("programs", std::move(programs));
  section.set("totals", std::move(totals));
  ctx.note_opt_report(std::move(section));

  ctx.metric("programs", static_cast<double>(rows.size()));
  ctx.metric("rewrites_attempted", attempted);
  ctx.metric("rewrites_accepted", accepted);
  ctx.metric("rewrites_restored", restored);
  ctx.metric("barriers_eliminated", eliminated);
  ctx.metric("mp_dmb_full_eliminated", mp_eliminated);
  ctx.metric("mp_dmb_full_min_cycles_saved", mp_min_saved);
  ctx.metric("table3_parity_families", static_cast<double>(parity));
  for (std::size_t pi = 0; pi < platforms.size(); ++pi)
    ctx.metric(platforms[pi].name + "_cycles_saved", preset_saved[pi]);

  ctx.check(unverified == 0,
            "every optimized program re-verified equal to its baseline");
  ctx.check(attempted >= accepted + restored,
            "rewrite arithmetic: attempted >= accepted + restored");
  ctx.check(mp_seen && mp_eliminated >= 1,
            "MP+dmb.full: at least one barrier eliminated outright");
  ctx.check(mp_min_saved > 0,
            "MP+dmb.full: cycles saved > 0 on every platform preset");
  for (std::size_t pi = 0; pi < platforms.size(); ++pi)
    ctx.check(preset_saved[pi] > 0,
              platforms[pi].name + ": corpus-wide cycles saved > 0");
  ctx.check(parity == 3,
            "Table-3 parity on all three lock handoff families");
}

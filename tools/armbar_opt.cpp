// armbar-opt: run the barrier-optimization pass pipeline (src/opt) over a
// program corpus from the command line, with the axiomatic checker as the
// per-rewrite equivalence oracle.
//
//   armbar-opt                         # all Table-1 litmus shapes
//   armbar-opt MP+dmb.full SB+dmb.full # shapes by name
//   armbar-opt --locks                 # strong lock handoff templates
//   armbar-opt --fuzz 8                # fuzz seeds 1..8
//   armbar-opt --seed 1234 --naive     # one seed, naive-enumerator oracle
//   armbar-opt --json report.json      # armbar.bench.report/v2 document
//                                      # with the armbar.opt.report/v1
//                                      # section (validate: report_check)
//   armbar-opt --plant-unsound         # self-test: force an illegal delete
//                                      # bypassing the oracle; the final
//                                      # verification must catch it
//
// Exit status: 0 every program optimized (or left alone) with a verified-
// equal outcome set, 1 any program failed verification — including the
// --plant-unsound run, where exit 1 *is* the expected verdict (the planted
// rewrite was caught and restored; ci.sh asserts exactly this). Exit 3
// means --plant-unsound was NOT caught: the oracle is not load-bearing.
// Exit 2: usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz/gen.hpp"
#include "litmus/shapes.hpp"
#include "lockver/templates.hpp"
#include "opt/driver.hpp"
#include "runner/arg_parser.hpp"
#include "trace/json_report.hpp"

using namespace armbar;

int main(int argc, char** argv) {
  runner::ArgParser args(
      "armbar-opt",
      "Optimize barrier placement with the axiomatic checker as the "
      "equivalence oracle. The corpus is the Table-1 litmus shapes named as "
      "SHAPE arguments (default: every shape).");
  args.add_flag("locks",
                "add the strong lock handoff templates (ticket/cna/ffwd) to "
                "the corpus");
  args.add_int("fuzz", "N", "add fuzz-generated programs for seeds 1..N", 0,
               0, UINT32_MAX);
  args.add_value("seed", "S", "add one fuzz seed (repeatable)");
  args.add_value("pass", "NAME",
                 "run only pass NAME (repeatable; default: all registered "
                 "passes: redundancy, downgrade)");
  args.add_flag("naive", "use the exhaustive enumerator as the oracle");
  args.add_value("json", "PATH",
                 "write an armbar.bench.report/v2 document with the "
                 "armbar.opt.report/v1 section");
  args.add_flag("plant-unsound",
                "self-test: force an illegal delete past the oracle; the "
                "final verification must catch it (exit 1)");
  args.add_flag("quiet", "only print per-program summary lines");

  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "armbar-opt: %s\n", err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  std::vector<std::uint32_t> seeds;
  for (const std::string& text : args.values("seed")) {
    std::int64_t seed = 0;
    if (!runner::parse_int_option("seed", text, 0, UINT32_MAX, &seed, &err)) {
      std::fprintf(stderr, "armbar-opt: %s\n", err.c_str());
      return 2;
    }
    seeds.push_back(static_cast<std::uint32_t>(seed));
  }
  opt::OptOptions opts;
  opts.passes = args.values("pass");
  opts.model.naive = args.given("naive");
  const bool plant = args.given("plant-unsound");
  if (plant) opts.plant = opt::OptOptions::Plant::kDeleteBypassingOracle;
  const bool locks = args.given("locks"), quiet = args.given("quiet");
  const auto fuzz_n = static_cast<std::uint32_t>(args.integer("fuzz"));
  const std::string json_path = args.str("json");
  const std::vector<std::string>& shape_names = args.positionals();

  // Assemble the corpus. Named shapes beat the default all-shapes sweep;
  // --locks / --fuzz / --seed extend whichever shape set is active.
  std::vector<model::ConcurrentProgram> corpus;
  if (!shape_names.empty()) {
    for (const std::string& n : shape_names) {
      bool found = false;
      for (const litmus::Table1Shape& s : litmus::table1_shapes())
        if (s.name == n) {
          corpus.push_back(s.model_prog);
          corpus.back().name = s.name;  // disambiguate barrier variants
          found = true;
          break;
        }
      if (!found) {
        std::fprintf(stderr, "armbar-opt: unknown shape '%s'\n", n.c_str());
        return 2;
      }
    }
  } else if (!locks && fuzz_n == 0 && seeds.empty()) {
    for (const litmus::Table1Shape& s : litmus::table1_shapes()) {
      corpus.push_back(s.model_prog);
      corpus.back().name = s.name;
    }
  }
  if (locks)
    for (lockver::LockFamily f :
         {lockver::LockFamily::kTicket, lockver::LockFamily::kCna,
          lockver::LockFamily::kFfwd}) {
      lockver::LockScenario sc =
          lockver::make_scenario(f, lockver::Strength::kStrong);
      sc.prog.name = sc.name;
      corpus.push_back(sc.prog);
    }
  for (std::uint32_t s = 1; s <= fuzz_n; ++s)
    corpus.push_back(fuzz::generate(s, {}));
  for (std::uint32_t s : seeds) corpus.push_back(fuzz::generate(s, {}));
  if (corpus.empty()) {
    std::fprintf(stderr, "armbar-opt: empty corpus\n");
    return 2;
  }

  std::vector<opt::OptResult> results;
  int failed = 0;
  bool planted_caught = true, planted_any = false;
  for (const model::ConcurrentProgram& p : corpus) {
    opt::OptResult r = opt::optimize(p, opts);
    if (!quiet) std::fputs(opt::describe_decisions(r).c_str(), stdout);
    std::printf("%s: %s — %u barriers -> %u (%u accepted, %u restored, "
                "%u attempted, %llu oracle calls)\n",
                p.name.c_str(),
                !r.model_valid           ? "SKIPPED (model-invalid)"
                : r.verified_equal       ? "verified"
                                         : "FAILED VERIFICATION",
                r.barriers_before, r.barriers_after, r.accepted, r.restored,
                r.attempted,
                static_cast<unsigned long long>(r.oracle_calls));
    if (r.model_valid && !r.verified_equal) ++failed;
    if (plant) {
      planted_any = planted_any || r.planted_injected;
      if (r.planted_injected && !r.planted_caught) planted_caught = false;
      if (r.planted_injected && r.planted_caught)
        std::printf("%s: planted illegal delete CAUGHT and restored\n",
                    p.name.c_str());
    }
    results.push_back(std::move(r));
  }

  if (!json_path.empty()) {
    trace::ReportBuilder rb("armbar_opt", "barrier-optimization decisions");
    rb.add_param("oracle", opts.model.naive ? "naive" : "por");
    rb.add_param("planted", plant ? "true" : "false");
    std::uint32_t accepted = 0, eliminated = 0;
    for (const opt::OptResult& r : results) {
      accepted += r.accepted;
      if (r.barriers_after < r.barriers_before)
        eliminated += r.barriers_before - r.barriers_after;
    }
    rb.add_metric("programs", static_cast<double>(results.size()));
    rb.add_metric("rewrites_accepted", accepted);
    rb.add_metric("barriers_eliminated", eliminated);
    for (const opt::OptResult& r : results)
      if (r.model_valid && !r.verified_equal)
        rb.add_check("'" + r.original.name + "' verified equal", false);
    rb.set_opt_report(opt::opt_report_json(results));
    if (!rb.write(json_path)) {
      std::fprintf(stderr, "armbar-opt: cannot write %s\n", json_path.c_str());
      return 2;
    }
    if (!quiet) std::printf("report written to %s\n", json_path.c_str());
  }

  if (plant) {
    if (!planted_caught || !planted_any) {
      std::fprintf(stderr,
                   !planted_any
                       ? "armbar-opt: no barrier survived to plant on — the "
                         "self-test proved nothing\n"
                       : "armbar-opt: PLANTED REWRITE NOT CAUGHT — the "
                         "oracle is not load-bearing\n");
      return 3;
    }
    // Caught-and-restored is the expected verdict; exit nonzero so CI can
    // assert the self-test actually tripped (mirrors armbar-lockver).
    return 1;
  }
  return failed == 0 ? 0 : 1;
}

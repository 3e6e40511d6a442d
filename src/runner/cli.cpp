#include "runner/cli.hpp"

#include <cstdio>
#include <limits>
#include <string>

#include "runner/arg_parser.hpp"
#include "runner/engine.hpp"
#include "runner/experiment.hpp"
#include "sim/fault/fault.hpp"

namespace armbar::runner {
int cli_main(int argc, char** argv) {
  const std::string prog = "armbar-bench";
  ArgParser args(prog,
                 "Unified runner for every registered fig*/table* "
                 "experiment of the ARM-barrier study.");
  args.add_flag("list", "list registered experiments and exit");
  args.add_value("filter", "GLOB",
                 "comma-separated glob list over experiment names", "*");
  args.add_int("jobs", "N", "max parallel sweep points (0 = hardware threads)",
               0, 0, 4096);
  args.add_int("repeat", "N",
               "run each experiment N times and check determinism", 1, 1,
               1000000);
  args.add_int("timeout-ms", "MS",
               "per-experiment wall-clock budget; a run past it is recorded "
               "as failed/timeout (0 = unlimited)",
               0, 0, std::numeric_limits<std::int64_t>::max() / 2);
  args.add_int("retries", "N",
               "re-run a timed-out or errored experiment up to N times with "
               "exponential backoff",
               0, 0, 16);
  args.add_int("fault-seed", "SEED",
               "inject seeded timing faults (chaos plan) into every "
               "simulation; 0 = off",
               0, 0, std::numeric_limits<std::int64_t>::max());
  args.add_int("verify-every", "CYCLES",
               "run the machine invariant verifier every N simulated cycles "
               "(0 = off)",
               0, 0, std::numeric_limits<std::int64_t>::max());
  args.add_optional_value("json", "PATH",
                          "write an armbar.bench.report/v2 document "
                          "(default path: <bench>.report.json)");
  args.add_optional_value("trace", "PATH",
                          "write a Chrome trace_event JSON; forces --jobs 1 "
                          "(default path: <experiment>.trace.json)");
  args.add_flag("no-cache", "disable the content-addressed result cache");
  args.add_value("cache-dir", "DIR", "result cache location", ".armbar-cache");
  args.add_flag("profile",
                "enable the host-side self-profiler; adds a host_prof "
                "section to --json reports (report-only: simulated results "
                "and digests are unchanged)");
  args.add_optional_value("profile-folded", "PATH",
                          "with --profile: write collapsed stacks for "
                          "flamegraph.pl (default path: <bench>.prof.folded)");
  args.add_optional_value("profile-chrome", "PATH",
                          "with --profile: write a Chrome trace_event JSON "
                          "of the merged profile (default path: "
                          "<bench>.prof.trace.json)");

  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "%s: %s\n", prog.c_str(), err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  if (!args.positionals().empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s' (see --help)\n",
                 prog.c_str(), args.positionals().front().c_str());
    return 2;
  }
  // Parse-time profile validation: the export paths make no sense without
  // the profiler on.
  if (!args.given("profile") &&
      (args.given("profile-folded") || args.given("profile-chrome"))) {
    std::fprintf(stderr,
                 "%s: --profile-folded/--profile-chrome require --profile\n",
                 prog.c_str());
    return 2;
  }

  const Registry& registry = Registry::global();
  if (args.given("list")) {
    for (const ExperimentSpec* s : registry.sorted())
      std::printf("%-26s %-10s %s\n", s->name.c_str(), s->figure.c_str(),
                  s->title.c_str());
    return 0;
  }

  EngineOptions opts;
  opts.filter = args.str("filter");
  opts.jobs = static_cast<std::size_t>(args.integer("jobs"));
  opts.repeat = static_cast<std::uint32_t>(args.integer("repeat"));
  opts.timeout_ms = args.integer("timeout-ms");
  opts.retries = static_cast<std::uint32_t>(args.integer("retries"));
  if (const std::int64_t seed = args.integer("fault-seed"); seed != 0)
    opts.fault = sim::fault::FaultPlan::chaos(static_cast<std::uint64_t>(seed));
  opts.verify_every =
      static_cast<std::uint64_t>(args.integer("verify-every"));
  opts.cache_enabled = !args.given("no-cache");
  opts.cache_dir = args.str("cache-dir");
  opts.collect_metrics = args.given("json") || args.given("trace");
  opts.trace = args.given("trace");
  opts.trace_path = args.str("trace");
  opts.profile = args.given("profile");
  if (args.given("profile-folded")) {
    opts.profile_folded = args.str("profile-folded");
    if (opts.profile_folded.empty()) opts.profile_folded = prog + ".prof.folded";
  }
  if (args.given("profile-chrome")) {
    opts.profile_chrome = args.str("profile-chrome");
    if (opts.profile_chrome.empty())
      opts.profile_chrome = prog + ".prof.trace.json";
  }

  Engine engine(registry, opts);
  EngineResult result = engine.run();

  bool io_ok = true;
  if (args.given("json") && !result.report.is_null()) {
    std::string path = args.str("json");
    if (path.empty()) {
      const trace::Json* bench = result.report.find("bench");
      path = (bench != nullptr && bench->is_string() ? bench->str() : prog) +
             ".report.json";
    }
    io_ok = trace::write_file(path, result.report.dump(1) + "\n");
    if (io_ok)
      std::printf("\nreport: %s\n", path.c_str());
    else
      std::fprintf(stderr, "%s: failed to write report '%s'\n", prog.c_str(),
                   path.c_str());
  }
  // Conventional 128+signal exit status: 130 for SIGINT, 143 for SIGTERM.
  if (result.interrupted) return 128 + (result.signal != 0 ? result.signal : 2);
  return result.ok && io_ok ? 0 : 1;
}

}  // namespace armbar::runner

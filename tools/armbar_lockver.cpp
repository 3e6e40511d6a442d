// armbar-lockver: verify lock handoff templates against the axiomatic
// checker (and optionally the simulator grid), from the command line.
//
//   armbar-lockver                      # all six clean scenarios
//   armbar-lockver ticket/weakened      # one scenario by name
//   armbar-lockver --plant drop-release cna/weakened
//   armbar-lockver --platform kunpeng916 --chaos-seeds 1 --out /tmp ffwd/strong
//
// Every failing scenario (invariant violation or sim/model divergence)
// writes an armbar.repro/v1 bundle with failure_kind "lock_invariant"
// into --out; replay it with `armbar-repro BUNDLE`.
//
// Exit status: 0 everything verified clean, 1 at least one scenario
// failed (bundles written), 2 usage error / unknown scenario.
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz/bundle.hpp"
#include "lockver/harness.hpp"
#include "runner/arg_parser.hpp"
#include "sim/platform.hpp"

using namespace armbar;

int main(int argc, char** argv) {
  lockver::VerifyOptions opts;
  runner::ArgParser args(
      "armbar-lockver",
      "Verify lock handoff scenarios, given as SCENARIO arguments (default: "
      "all six clean family/strength variants), through the axiomatic "
      "checker + simulator cross-check. Scenario names: "
      "{ticket,cna,ffwd}/{strong,weakened}[+BUG].");
  args.add_value("plant", "BUG",
                 "plant a bug into every selected scenario: drop-acquire | "
                 "drop-release | downgrade-dmb");
  args.add_value("platform", "NAME",
                 "sim platform preset (repeatable; default: all)");
  args.add_int("chaos-seeds", "N", "chaos fault plans per platform",
               opts.chaos_seeds, 0, UINT32_MAX);
  args.add_flag("no-sim", "model-only: skip the simulator cross-check");
  args.add_value("out", "DIR", "directory for failure bundles", ".");
  args.add_flag("quiet", "only print per-scenario verdict lines");

  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "armbar-lockver: %s\n", err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  lockver::PlantedBug plant = lockver::PlantedBug::kNone;
  if (args.given("plant") &&
      (!lockver::planted_from_string(args.str("plant"), &plant) ||
       plant == lockver::PlantedBug::kNone)) {
    std::fprintf(stderr, "armbar-lockver: --plant: unknown bug '%s'\n",
                 args.str("plant").c_str());
    return 2;
  }
  for (const std::string& p : args.values("platform"))
    if (!sim::known_platform(p, &err)) {
      std::fprintf(stderr, "armbar-lockver: --platform: %s\n", err.c_str());
      return 2;
    }
  opts.platforms = args.values("platform");
  opts.chaos_seeds = static_cast<std::uint32_t>(args.integer("chaos-seeds"));
  opts.sim_crosscheck = !args.given("no-sim");
  const std::string out_dir = args.str("out");
  const bool quiet = args.given("quiet");
  const std::vector<std::string>& names = args.positionals();

  std::vector<lockver::LockScenario> scenarios;
  if (names.empty()) {
    scenarios = lockver::all_clean_scenarios();
  } else {
    for (const std::string& n : names) {
      lockver::LockScenario sc;
      if (!lockver::scenario_by_name(n, &sc)) {
        std::fprintf(stderr, "armbar-lockver: unknown scenario '%s'\n",
                     n.c_str());
        return 2;
      }
      scenarios.push_back(std::move(sc));
    }
  }
  if (plant != lockver::PlantedBug::kNone) {
    for (lockver::LockScenario& sc : scenarios) {
      if (sc.planted != lockver::PlantedBug::kNone) {
        std::fprintf(stderr,
                     "armbar-lockver: '%s' already has a planted bug; "
                     "--plant only applies to clean scenarios\n",
                     sc.name.c_str());
        return 2;
      }
      sc = lockver::make_scenario(sc.family, sc.strength, plant);
    }
  }

  int failed = 0;
  for (const lockver::LockScenario& sc : scenarios) {
    const lockver::VerifyResult r = lockver::verify(sc, opts);
    if (!quiet) std::printf("%s\n", r.summary().c_str());
    if (r.ok()) {
      std::printf("%s: OK (%u dmb/handoff)\n", sc.name.c_str(),
                  sc.handoff_dmbs);
      continue;
    }
    ++failed;
    std::string path = out_dir + "/lockver_";
    for (char c : sc.name) path += (c == '/' || c == '+') ? '_' : c;
    path += ".repro.json";
    const fuzz::ReproBundle b = lockver::make_lock_bundle(sc, opts, r);
    if (!fuzz::write_bundle(path, b, &err)) {
      std::fprintf(stderr, "%s: FAILED, and bundle write failed: %s\n",
                   sc.name.c_str(), err.c_str());
      continue;
    }
    std::printf("%s: FAILED — bundle written to %s\n", sc.name.c_str(),
                path.c_str());
  }
  return failed == 0 ? 0 : 1;
}

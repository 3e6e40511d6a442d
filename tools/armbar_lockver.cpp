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
#include <cstring>
#include <string>
#include <vector>

#include "fuzz/bundle.hpp"
#include "lockver/harness.hpp"
#include "runner/arg_parser.hpp"

namespace {

using namespace armbar;

void usage(std::FILE* to) {
  std::fputs(
      "usage: armbar-lockver [options] [SCENARIO ...]\n"
      "\n"
      "Verify lock handoff scenarios (default: all six clean family/strength\n"
      "variants) through the axiomatic checker + simulator cross-check.\n"
      "Scenario names: {ticket,cna,ffwd}/{strong,weakened}[+BUG].\n"
      "\n"
      "  --plant BUG       plant a bug into every selected scenario:\n"
      "                    drop-acquire | drop-release | downgrade-dmb\n"
      "  --platform NAME   sim platform preset (repeatable; default: all)\n"
      "  --chaos-seeds N   chaos fault plans per platform (default 2)\n"
      "  --no-sim          model-only: skip the simulator cross-check\n"
      "  --out DIR         directory for failure bundles (default '.')\n"
      "  --quiet           only print per-scenario verdict lines\n",
      to);
}

}  // namespace

int main(int argc, char** argv) {
  lockver::VerifyOptions opts;
  lockver::PlantedBug plant = lockver::PlantedBug::kNone;
  std::string out_dir = ".";
  bool quiet = false;
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "armbar-lockver: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto u32 = [&](const char* flag) -> std::uint32_t {
      std::int64_t v = 0;
      std::string err;
      if (!runner::parse_int_option(flag + 2, value(flag), 0, UINT32_MAX, &v,
                                    &err)) {
        std::fprintf(stderr, "armbar-lockver: %s\n", err.c_str());
        std::exit(2);
      }
      return static_cast<std::uint32_t>(v);
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--plant") {
      if (!lockver::planted_from_string(value("--plant"), &plant) ||
          plant == lockver::PlantedBug::kNone) {
        std::fprintf(stderr, "armbar-lockver: unknown bug '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--platform") {
      opts.platforms.push_back(value("--platform"));
    } else if (arg == "--chaos-seeds") {
      opts.chaos_seeds = u32("--chaos-seeds");
    } else if (arg == "--no-sim") {
      opts.sim_crosscheck = false;
    } else if (arg == "--out") {
      out_dir = value("--out");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "armbar-lockver: unknown option '%s'\n",
                   arg.c_str());
      usage(stderr);
      return 2;
    } else {
      names.push_back(arg);
    }
  }

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
    std::string err;
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

// armbar-repro: one-command replay of a differential-fuzzing failure.
//
//   armbar-repro bundle.repro.json [more.repro.json ...]
//
// Each argument is an armbar.repro/v1 bundle (written by armbar-fuzz, the
// fuzz_differential experiment, or armbar-lockver). The tool re-runs the
// exact grid the bundle captured — same program text, platform presets,
// fault plans, skews, mutation and model budgets — and compares the fresh
// digest against the bundle's `expect_digest`. Equality means the failure
// reproduced bit-exactly: same allowed set, same observed set, same
// failure records.
//
// Bundles with failure_kind "lock_invariant" (lock-verification harness,
// ISSUE 9) replay through lockver::replay_lock_bundle instead: the
// invariants are rebuilt from the bundled scenario name and re-evaluated
// over the bundled program's allowed set, and the recorded witness must
// still violate the recorded invariant.
//
// Exit status: 0 every bundle reproduced, 1 at least one did not (or was a
// false capture that no longer fails), 2 usage / unreadable bundle.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "fuzz/bundle.hpp"
#include "fuzz/diff.hpp"
#include "lockver/harness.hpp"
#include "runner/arg_parser.hpp"

namespace {

/// 0 reproduced, 1 diverged, 2 unreadable.
int replay(const char* path, bool quiet) {
  armbar::fuzz::ReproBundle b;
  std::string err;
  if (!armbar::fuzz::load_bundle(path, &b, &err)) {
    std::fprintf(stderr, "%s: cannot load bundle: %s\n", path, err.c_str());
    return 2;
  }
  if (!quiet) {
    std::printf("%s: program '%s' (%zu threads), kind '%s'\n", path,
                b.prog.name.c_str(), b.prog.threads.size(),
                b.failure_kind.c_str());
    if (!b.detail.empty()) std::printf("%s:   %s\n", path, b.detail.c_str());
  }
  if (b.failure_kind == armbar::lockver::kLockInvariantKind) {
    if (!quiet && !b.scenario.empty())
      std::printf("%s:   lockver scenario '%s', invariant '%s'\n", path,
                  b.scenario.c_str(), b.invariant.c_str());
    const armbar::lockver::ReplayVerdict v =
        armbar::lockver::replay_lock_bundle(b);
    if (!v.loaded) {
      std::fprintf(stderr, "%s: cannot replay: %s\n", path, v.detail.c_str());
      return 2;
    }
    if (!quiet) std::printf("%s:   %s\n", path, v.detail.c_str());
    if (v.reproduced) {
      std::printf("%s: REPRODUCED (digest %016" PRIx64 ")\n", path,
                  b.expect_digest);
      return 0;
    }
    std::printf("%s: NOT REPRODUCED — %s\n", path, v.detail.c_str());
    return 1;
  }
  const armbar::fuzz::DiffResult fresh =
      armbar::fuzz::run_diff(b.prog, b.opts);
  const std::uint64_t digest = fresh.digest();
  const bool same_digest = digest == b.expect_digest;
  bool same_kind = false;
  for (const auto& f : fresh.failures) same_kind |= f.kind == b.failure_kind;
  if (!quiet) std::printf("%s:   %s\n", path, fresh.summary().c_str());
  if (same_digest && same_kind) {
    std::printf("%s: REPRODUCED (digest %016" PRIx64 ", %" PRIu64 " runs)\n",
                path, digest, fresh.runs);
    return 0;
  }
  std::printf("%s: NOT REPRODUCED — %s (expected digest %016" PRIx64
              ", got %016" PRIx64 ")\n",
              path,
              same_kind ? "digest diverged"
                        : "expected failure kind did not occur",
              b.expect_digest, digest);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  armbar::runner::ArgParser args(
      "armbar-repro",
      "Replay armbar.repro/v1 differential-failure bundles, given as "
      "BUNDLE.repro.json arguments, bit-exactly.");
  args.add_flag("quiet", "only print the per-bundle verdict lines");
  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "armbar-repro: %s\n", err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  if (args.positionals().empty()) {
    std::fprintf(stderr, "armbar-repro: no BUNDLE.repro.json given (see "
                         "--help)\n");
    return 2;
  }
  int worst = 0;
  for (const std::string& path : args.positionals()) {
    const int rc = replay(path.c_str(), args.given("quiet"));
    if (rc > worst) worst = rc;
  }
  return worst;
}

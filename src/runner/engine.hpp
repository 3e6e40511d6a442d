// Experiment engine: resolves a filter against the registry, runs each
// matched experiment with shared infrastructure (thread pool,
// content-addressed result cache, optional tracer), and assembles one
// consolidated armbar.bench.report/v2 document.
//
// Experiments execute serially in name order — parallelism lives *inside*
// an experiment (ctx.map over sweep points) so stdout stays readable and
// the report order is deterministic. A single-match run reports under the
// experiment's own name with unprefixed check/metric keys; a multi-match
// run reports as "armbar-bench" with "<experiment>: " / "<experiment>/"
// prefixes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/cache.hpp"
#include "runner/experiment.hpp"
#include "sim/fault/fault.hpp"
#include "trace/json.hpp"

namespace armbar::runner {

struct EngineOptions {
  std::string filter = "*";  ///< comma-separated glob list over names
  std::size_t jobs = 0;      ///< 0 => hardware_jobs(); tracing forces 1
  std::uint32_t repeat = 1;  ///< run each experiment N times (determinism)
  bool cache_enabled = true;
  std::string cache_dir = ".armbar-cache";
  bool collect_metrics = false;  ///< --json: report counters + histograms
  bool trace = false;            ///< --trace: shared tracer, serial
  std::string trace_path;        ///< empty => "<name>.trace.json" per match

  // ---- graceful degradation (ISSUE 3) ----
  /// Per-experiment wall-clock budget in ms; 0 = unlimited. Enforced at
  /// sweep-point granularity (a point mid-simulation finishes; the watchdog
  /// bounds that).
  std::int64_t timeout_ms = 0;
  /// Fault-injection plan applied to every Machine::run in the process
  /// (--fault-seed installs FaultPlan::chaos). Disabled plan => clean run.
  sim::fault::FaultPlan fault{};
  /// Run the MachineVerifier every N simulated cycles (0 = off).
  std::uint64_t verify_every = 0;
  /// Install SIGINT *and* SIGTERM handlers for the duration of run() so an
  /// interactive ^C and a CI timeout's kill both flush a partial report
  /// (with quarantine entries) instead of dying silently. Tests that
  /// raise() set this too.
  bool handle_sigint = true;

  // ---- host-side profiling (ISSUE 6) ----
  /// --profile: enable the prof:: scoped timers for the whole run and
  /// attach an armbar.host_prof/v1 section to the report. Host timing never
  /// reaches cache keys or points digests — simulated results are
  /// bit-identical with profiling on or off.
  bool profile = false;
};

/// Per-experiment outcome, in run (= name) order.
struct ExperimentOutcome {
  std::string name;
  bool ok = false;            ///< all checks passed, no abnormal termination
  bool aborted = false;       ///< body called ctx.fatal()
  std::uint64_t points = 0;   ///< cached() sweep points executed or hit
  std::uint64_t cache_hits = 0;
  std::uint64_t points_digest = 0;  ///< order-independent sweep fingerprint
  double wall_ms = 0.0;       ///< across all repetitions
  /// "ok", "failed", or "skipped" (never started: SIGINT arrived first).
  std::string status = "ok";
  /// Abnormal-termination class when status != "ok": "timeout", "hang",
  /// "invariant_violation", "check_failed", "interrupted", "error",
  /// "skipped"; empty for a clean run that merely failed its checks.
  std::string kind;
  std::string reason;         ///< human-readable failure description
  trace::Json diagnostic;     ///< SimDiagnostic bundle (null if none)
  std::string repro_bundle;   ///< armbar.repro/v1 path (empty if none)
};

struct EngineResult {
  bool ok = false;                ///< every experiment ok (and >=1 matched)
  bool interrupted = false;       ///< SIGINT/SIGTERM observed; partial report
  int signal = 0;                 ///< the interrupting signal number (0 = none)
  std::vector<ExperimentOutcome> outcomes;
  trace::Json report;             ///< consolidated armbar.bench.report/v2
  ResultCache::Stats cache_stats;
  std::size_t jobs = 1;           ///< effective job count used
};

/// Process-global cleanup hooks run when an engine run is interrupted
/// (SIGINT/SIGTERM), *before* the partial report is assembled. Experiments
/// that fork helper processes or own kernel-persistent resources (the shm
/// service fleets) register a killer/reaper here so a ^C mid-bench never
/// leaks children or /dev/shm segments. Registration is idempotent per
/// function pointer; hooks must themselves be idempotent.
void register_interrupt_cleanup(void (*fn)());
void run_interrupt_cleanups();

class Engine {
 public:
  Engine(const Registry& registry, EngineOptions opts);

  /// Run everything the filter matches. Prints the familiar banners and
  /// tables to stdout; returns the consolidated report for the caller to
  /// write. An empty match is a failure (a typoed --filter must not pass).
  EngineResult run();

 private:
  const Registry& registry_;
  EngineOptions opts_;
};

}  // namespace armbar::runner

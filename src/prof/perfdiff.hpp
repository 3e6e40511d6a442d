// Report differ behind tools/armbar-perf: compares the host_prof sections
// (and the sim_perf self-relative throughput metric) of two
// armbar.bench.report documents and renders per-phase regression verdicts.
//
// The *gate* is machine-independent by construction: it compares
// `ips_vs_null` — simulated-instructions/sec divided by a null-interpreter
// loop's ops/sec, both measured in the same process — between baseline and
// current. Host CPU speed cancels out of that ratio, so a committed
// baseline from one machine meaningfully gates a CI run on another.
// Per-phase time *shares* (self_ns / total self) are likewise
// machine-relative; drifts beyond kPhaseDriftPp are reported, as advisory
// output that never fails the gate.
#pragma once

#include <string>
#include <vector>

#include "trace/json.hpp"

namespace armbar::prof {

/// A phase whose share of total self time grew by more than this many
/// percentage points gets a "regressed" verdict. A drift never exceeds the
/// phase's current share, so a phase under this share never regresses:
/// when the hot path shrinks, a negligible phase's share can multiply
/// while its absolute cost is still noise.
inline constexpr double kPhaseDriftPp = 15.0;

struct PerfDiffOptions {
  /// Gate: current ips_vs_null must be >= this fraction of the baseline's.
  /// 0.5 tolerates host noise and moderate churn while still catching a
  /// 2x interpreter regression.
  double min_rel_ratio = 0.5;
  /// When > 0, every per-preset "<preset>_{mp,deep}_ips" metric present in
  /// the baseline is normalized by its report's null-loop throughput and
  /// the current/baseline ratio must reach this value (machine-independent,
  /// like ips_vs_null but per preset). 0 disables.
  double min_preset_ratio = 0.0;
};

struct PhaseVerdict {
  std::string phase;
  double base_share_pct = 0.0;
  double cur_share_pct = 0.0;
  double drift_pp = 0.0;        ///< cur - base, percentage points
  std::string verdict;          ///< "ok" | "regressed" | "new" | "gone"
};

/// One preset's normalized (null-relative) throughput comparison.
struct PresetRatio {
  std::string metric;           ///< e.g. "kunpeng916_deep_ips"
  double base_rel = 0.0;        ///< baseline ips / baseline null ops-per-sec
  double cur_rel = 0.0;
  double ratio = 0.0;           ///< cur_rel / base_rel
  bool ok = true;
};

struct PerfDiff {
  bool comparable = false;  ///< both reports carried the needed fields
  std::string error;        ///< why not, when !comparable
  double base_ips = 0.0;    ///< host_prof sim_instructions_per_sec
  double cur_ips = 0.0;
  double base_rel = 0.0;    ///< ips_vs_null metric (machine-independent)
  double cur_rel = 0.0;
  double rel_ratio = 0.0;   ///< cur_rel / base_rel
  std::vector<PhaseVerdict> phases;
  /// Filled when min_preset_ratio > 0: one entry per baseline *_ips metric.
  std::vector<PresetRatio> presets;
  bool ok = false;          ///< gate verdict
};

/// Diff two parsed report documents (baseline, current).
PerfDiff diff_reports(const trace::Json& base, const trace::Json& cur,
                      const PerfDiffOptions& opts = {});

/// Human-readable rendering (the armbar-perf stdout).
std::string render(const PerfDiff& d, const PerfDiffOptions& opts);

}  // namespace armbar::prof

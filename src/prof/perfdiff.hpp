// Report differ behind tools/armbar-perf: compares the sim_perf
// self-relative throughput metrics of two armbar.bench.report documents and
// lists each host_prof phase's share of self time in both.
//
// The *gate* is machine-independent by construction: it compares
// `ips_vs_null` — simulated-instructions/sec divided by a null-interpreter
// loop's ops/sec, both measured in the same process — between baseline and
// current. Host CPU speed cancels out of that ratio, so a committed
// baseline from one machine meaningfully gates a CI run on another.
// Per-phase shares (self_ns / total self) are printed for information
// only: a phase's share grows whenever another phase gets cheaper, and
// hosts differ in how much faster each phase runs (memory-bound coherence
// gains less from a fast core than the interpreter), so no verdict is
// drawn from them.
#pragma once

#include <string>
#include <vector>

#include "trace/json.hpp"

namespace armbar::prof {

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

/// One phase's share of its report's total self time, in percent; 0 in
/// the report that lacks the phase.
struct PhaseShare {
  std::string phase;
  double base_share_pct = 0.0;
  double cur_share_pct = 0.0;
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
  std::vector<PhaseShare> phases;  ///< every phase of either, by name
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

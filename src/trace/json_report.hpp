// Machine-readable bench reports: the compact JSON document every fig*/
// table* bench emits under --json, suitable for trajectory tracking
// (BENCH_*.json) and CI schema checks.
//
// Schema (armbar.bench.report/v2):
//   {
//     "schema":  "armbar.bench.report/v2",
//     "bench":   "<binary id, e.g. fig3_store_store>",
//     "title":   "<human banner>",
//     "ok":      true,                       // all qualitative checks passed
//     "checks":  [{"claim": "...", "pass": true}, ...],
//     "params":  {"name": "value", ...},     // optional run parameters
//     "metrics": {"name": <number>, ...},    // scalar results (throughputs…)
//     "histograms": {                        // latency distributions
//       "<name>": {"count":N,"sum":S,"min":m,"max":M,
//                   "mean":x,"p50":x,"p95":x,"p99":x}, ...
//     },
//     "quarantine": [                        // abnormally-terminated runs
//       {"name": "<experiment>", "status": "failed",
//        "kind": "timeout|hang|invariant_violation|check_failed|error|...",
//        "reason": "...", "diagnostic": {...},    // diagnostic optional
//        "repro_bundle": "path/to/x.repro.json"}, // optional: replay with
//       ...                                       //   tools/armbar-repro
//     ],
//     "host_prof": { ... },                  // optional: host-side
//                                            //   profile, armbar.host_prof/v1
//                                            //   (see src/prof/export.hpp);
//                                            //   excluded from all digests
//     "opt_report": { ... }                  // optional: barrier-
//   }                                        //   optimization decisions,
//                                            //   armbar.opt.report/v1
//                                            //   (see src/opt/driver.hpp)
#pragma once

#include <string>

#include "trace/json.hpp"
#include "trace/metrics.hpp"

namespace armbar::trace {

inline constexpr const char* kReportSchema = "armbar.bench.report/v2";

class ReportBuilder {
 public:
  ReportBuilder(std::string bench_id, std::string title);

  void set_ok(bool ok) { ok_ = ok; }
  void add_check(const std::string& claim, bool pass);
  void add_param(const std::string& name, const std::string& value);
  void add_metric(const std::string& name, double value);
  void add_histogram(const std::string& name, const HistogramSummary& s);
  /// Record an abnormally-terminated experiment (timeout, hang, invariant
  /// violation, tripped ARMBAR_CHECK, interrupt, lock-invariant violation).
  /// `diagnostic` may be a null Json when no structured bundle exists;
  /// `repro_bundle` is the path of a self-contained armbar.repro/v1 bundle
  /// replayable with tools/armbar-repro (empty = none). `extra` is an
  /// optional object of additional string parameters merged into the entry
  /// verbatim (reserved keys are skipped) — kind "lock_invariant" entries
  /// must carry "invariant" and "witness" this way (validated). Forces ok
  /// to false.
  void add_quarantine(const std::string& name, const std::string& status,
                      const std::string& kind, const std::string& reason,
                      const Json& diagnostic = Json(),
                      const std::string& repro_bundle = "",
                      const Json& extra = Json());
  /// Pull every counter and histogram out of a registry, under
  /// "<prefix><name>": counters into metrics, histograms summarized.
  void add_registry(const MetricsRegistry& reg, const std::string& prefix);
  /// Attach an armbar.host_prof/v1 section (prof::host_prof_json). Host
  /// timing is report-only: it never participates in points digests or
  /// cache keys. A null value removes the section.
  void set_host_prof(Json hp) { host_prof_ = std::move(hp); }
  /// Attach an armbar.opt.report/v1 section (opt::opt_report_json): the
  /// per-program rewrite decisions of the barrier-optimization driver.
  /// Validated for arithmetic consistency (attempted >= accepted +
  /// restored) by validate_bench_report. A null value removes the section.
  void set_opt_report(Json rep) { opt_report_ = std::move(rep); }

  Json build() const;
  std::string str(int indent = 1) const { return build().dump(indent); }
  bool write(const std::string& path) const;

 private:
  std::string bench_id_;
  std::string title_;
  bool ok_ = true;
  Json checks_ = Json::array();
  Json params_ = Json::object();
  Json metrics_ = Json::object();
  Json histograms_ = Json::object();
  Json quarantine_ = Json::array();
  Json host_prof_;
  Json opt_report_;
};

inline constexpr const char* kOptReportSchema = "armbar.opt.report/v1";

/// Validate a parsed document against armbar.bench.report/v2. On
/// failure returns false and describes the first violation in *err.
/// Beyond the structural checks, rejects reports where host profiling
/// contaminated digest material: a "prof_digest_leak" param set to "true"
/// (the engine emits it when a cached point value carried profiling
/// fields) fails validation outright.
bool validate_bench_report(const Json& doc, std::string* err = nullptr);

}  // namespace armbar::trace

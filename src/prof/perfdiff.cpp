#include "prof/perfdiff.hpp"

#include <cmath>
#include <cstdio>
#include <map>

namespace armbar::prof {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// `ips_vs_null` from the metrics object: unprefixed in a single-experiment
/// report, "<experiment>/ips_vs_null" in a consolidated one.
double find_rel(const trace::Json& doc) {
  const trace::Json* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return 0.0;
  for (const auto& [name, v] : metrics->members())
    if ((name == "ips_vs_null" || ends_with(name, "/ips_vs_null")) &&
        v.is_number())
      return v.number();
  return 0.0;
}

/// A named metric from the metrics object, tolerating the consolidated
/// "<experiment>/<name>" prefix the runner adds. 0.0 when absent.
double find_metric_suffix(const trace::Json& doc, const std::string& want) {
  const trace::Json* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return 0.0;
  for (const auto& [name, v] : metrics->members())
    if ((name == want || ends_with(name, "/" + want)) && v.is_number())
      return v.number();
  return 0.0;
}

/// All per-preset throughput metric names ("..._mp_ips" / "..._deep_ips"),
/// stripped of any consolidated-report experiment prefix, sorted by the
/// metrics object's iteration order.
std::vector<std::string> ips_metric_names(const trace::Json& doc) {
  std::vector<std::string> out;
  const trace::Json* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return out;
  for (const auto& [name, v] : metrics->members()) {
    if (!v.is_number()) continue;
    if (!ends_with(name, "_mp_ips") && !ends_with(name, "_deep_ips")) continue;
    const auto slash = name.rfind('/');
    out.push_back(slash == std::string::npos ? name : name.substr(slash + 1));
  }
  return out;
}

double find_ips(const trace::Json& doc) {
  const trace::Json* hp = doc.find("host_prof");
  if (hp == nullptr) return 0.0;
  const trace::Json* ips = hp->find("sim_instructions_per_sec");
  return ips != nullptr && ips->is_number() ? ips->number() : 0.0;
}

/// phase name -> share of total self time, in percent.
std::map<std::string, double> phase_shares(const trace::Json& doc) {
  std::map<std::string, double> out;
  const trace::Json* hp = doc.find("host_prof");
  if (hp == nullptr) return out;
  const trace::Json* phases = hp->find("phases");
  if (phases == nullptr || !phases->is_object()) return out;
  double total = 0.0;
  for (const auto& [name, p] : phases->members()) {
    const trace::Json* self = p.find("self_ns");
    if (self != nullptr && self->is_number()) {
      out[name] = self->number();
      total += self->number();
    }
  }
  if (total > 0.0)
    for (auto& [name, v] : out) v = v * 100.0 / total;
  return out;
}

}  // namespace

PerfDiff diff_reports(const trace::Json& base, const trace::Json& cur,
                      const PerfDiffOptions& opts) {
  PerfDiff d;
  d.base_ips = find_ips(base);
  d.cur_ips = find_ips(cur);
  d.base_rel = find_rel(base);
  d.cur_rel = find_rel(cur);

  if (base.find("host_prof") == nullptr || cur.find("host_prof") == nullptr) {
    d.error = "a report is missing its host_prof section";
    return d;
  }
  if (d.base_rel <= 0.0 || d.cur_rel <= 0.0) {
    d.error = "a report is missing the ips_vs_null metric "
              "(run the sim_perf experiment with --json)";
    return d;
  }
  d.comparable = true;
  d.rel_ratio = d.cur_rel / d.base_rel;

  std::map<std::string, PhaseShare> rows;
  for (const auto& [name, share] : phase_shares(base))
    rows[name].base_share_pct = share;
  for (const auto& [name, share] : phase_shares(cur))
    rows[name].cur_share_pct = share;
  for (auto& [name, row] : rows) {
    row.phase = name;
    d.phases.push_back(std::move(row));
  }

  // Per-preset normalized throughput: each "<preset>_{mp,deep}_ips" metric
  // divided by its own report's null-loop ops/s, so the cross-report ratio
  // is machine-independent like ips_vs_null but resolved per platform
  // preset and per workload (a regression confined to the 64-core preset
  // cannot hide inside the blended aggregate).
  bool presets_ok = true;
  if (opts.min_preset_ratio > 0.0) {
    const double base_null = find_metric_suffix(base, "null_loop_mops");
    const double cur_null = find_metric_suffix(cur, "null_loop_mops");
    if (base_null <= 0.0 || cur_null <= 0.0) {
      d.comparable = false;
      d.error = "a report is missing the null_loop_mops metric needed for "
                "per-preset gating";
      return d;
    }
    for (const std::string& name : ips_metric_names(base)) {
      PresetRatio pr;
      pr.metric = name;
      pr.base_rel = find_metric_suffix(base, name) / (base_null * 1e6);
      pr.cur_rel = find_metric_suffix(cur, name) / (cur_null * 1e6);
      if (pr.base_rel <= 0.0 || pr.cur_rel <= 0.0) {
        pr.ratio = 0.0;
        pr.ok = false;
      } else {
        pr.ratio = pr.cur_rel / pr.base_rel;
        pr.ok = pr.ratio >= opts.min_preset_ratio;
      }
      presets_ok = presets_ok && pr.ok;
      d.presets.push_back(std::move(pr));
    }
    if (d.presets.empty()) {
      d.comparable = false;
      d.error = "baseline carries no per-preset *_ips metrics to gate";
      return d;
    }
  }

  d.ok = d.rel_ratio >= opts.min_rel_ratio && presets_ok;
  return d;
}

std::string render(const PerfDiff& d, const PerfDiffOptions& opts) {
  char buf[256];
  std::string out;
  if (!d.comparable) {
    out = "armbar-perf: reports not comparable: " + d.error + "\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf),
                "sim ips          baseline %12.0f   current %12.0f  "
                "(host-dependent, informational)\n",
                d.base_ips, d.cur_ips);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "ips_vs_null      baseline %12.6f   current %12.6f   "
                "ratio %.2fx  [gate >= %.2fx]\n",
                d.base_rel, d.cur_rel, d.rel_ratio, opts.min_rel_ratio);
  out += buf;
  out += "\nphase            base%   cur%   (share of self time, "
         "information only)\n";
  for (const PhaseShare& p : d.phases) {
    std::snprintf(buf, sizeof(buf), "%-16s %5.1f  %5.1f\n", p.phase.c_str(),
                  p.base_share_pct, p.cur_share_pct);
    out += buf;
  }
  if (!d.presets.empty()) {
    out += "\npreset metric            base rel      cur rel    ratio  verdict\n";
    for (const PresetRatio& p : d.presets) {
      std::snprintf(buf, sizeof(buf), "%-22s %10.6f  %10.6f  %6.2fx  %s\n",
                    p.metric.c_str(), p.base_rel, p.cur_rel, p.ratio,
                    p.ok ? "ok" : "REGRESSED");
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "[preset gate >= %.2fx]\n",
                  opts.min_preset_ratio);
    out += buf;
  }
  out += d.ok ? "\nperf gate OK\n" : "\nperf gate FAILED\n";
  return out;
}

}  // namespace armbar::prof

#include "trace/json_report.hpp"

namespace armbar::trace {

ReportBuilder::ReportBuilder(std::string bench_id, std::string title)
    : bench_id_(std::move(bench_id)), title_(std::move(title)) {}

void ReportBuilder::add_check(const std::string& claim, bool pass) {
  Json c = Json::object();
  c.set("claim", claim);
  c.set("pass", pass);
  checks_.push(std::move(c));
  ok_ = ok_ && pass;
}

void ReportBuilder::add_param(const std::string& name, const std::string& value) {
  params_.set(name, value);
}

void ReportBuilder::add_metric(const std::string& name, double value) {
  metrics_.set(name, value);
}

void ReportBuilder::add_histogram(const std::string& name,
                                  const HistogramSummary& s) {
  Json h = Json::object();
  h.set("count", s.count);
  h.set("sum", s.sum);
  h.set("min", s.min);
  h.set("max", s.max);
  h.set("mean", s.mean);
  h.set("p50", s.p50);
  h.set("p95", s.p95);
  h.set("p99", s.p99);
  histograms_.set(name, std::move(h));
}

void ReportBuilder::add_quarantine(const std::string& name,
                                   const std::string& status,
                                   const std::string& kind,
                                   const std::string& reason,
                                   const Json& diagnostic,
                                   const std::string& repro_bundle,
                                   const Json& extra) {
  Json q = Json::object();
  q.set("name", name);
  q.set("status", status);
  q.set("kind", kind);
  q.set("reason", reason);
  if (!diagnostic.is_null()) q.set("diagnostic", diagnostic);
  if (!repro_bundle.empty()) q.set("repro_bundle", repro_bundle);
  if (extra.is_object()) {
    for (const auto& [key, value] : extra.members()) {
      if (key == "name" || key == "status" || key == "kind" ||
          key == "reason" || key == "diagnostic" || key == "repro_bundle")
        continue;  // reserved
      if (value.is_string()) q.set(key, value.str());
    }
  }
  quarantine_.push(std::move(q));
  ok_ = false;
}

void ReportBuilder::add_registry(const MetricsRegistry& reg,
                                 const std::string& prefix) {
  for (const auto& name : reg.counter_names())
    add_metric(prefix + name, static_cast<double>(reg.counter(name)));
  for (const auto& name : reg.histogram_names())
    add_histogram(prefix + name, summarize(reg.histogram(name)));
}

Json ReportBuilder::build() const {
  Json doc = Json::object();
  doc.set("schema", kReportSchema);
  doc.set("bench", bench_id_);
  doc.set("title", title_);
  doc.set("ok", ok_);
  doc.set("checks", checks_);
  doc.set("params", params_);
  doc.set("metrics", metrics_);
  doc.set("histograms", histograms_);
  doc.set("quarantine", quarantine_);
  if (!host_prof_.is_null()) doc.set("host_prof", host_prof_);
  if (!opt_report_.is_null()) doc.set("opt_report", opt_report_);
  return doc;
}

bool ReportBuilder::write(const std::string& path) const {
  return write_file(path, str() + "\n");
}

namespace {

bool violation(std::string* err, const std::string& what) {
  if (err) *err = what;
  return false;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// armbar.host_prof/v1 section gate: phase names non-empty, per-phase ns
/// monotone-summable (self <= total per phase; summed self bounded by
/// wall * threads, with slack for timer calibration error), throughput
/// positive when present, and the section explicitly marked as excluded
/// from digest material.
bool validate_host_prof(const Json& hp, std::string* err) {
  if (!hp.is_object())
    return violation(err, "host_prof is not a JSON object");

  const Json* excluded = hp.find("excluded_from_digests");
  if (excluded == nullptr || !excluded->is_bool() || !excluded->boolean())
    return violation(err,
                     "host_prof must set excluded_from_digests=true (host "
                     "timing is report-only, never digest material)");

  const Json* wall = hp.find("wall_ns");
  if (wall == nullptr || !wall->is_number() || wall->number() < 0)
    return violation(err, "host_prof missing non-negative number 'wall_ns'");
  const Json* threads = hp.find("threads");
  if (threads == nullptr || !threads->is_number() || threads->number() < 1)
    return violation(err, "host_prof missing number 'threads' >= 1");

  const Json* phases = hp.find("phases");
  if (phases == nullptr || !phases->is_object() || phases->size() == 0)
    return violation(err, "host_prof missing non-empty object 'phases'");
  double self_sum = 0.0;
  for (const auto& [name, p] : phases->members()) {
    if (name.empty())
      return violation(err, "host_prof phase with an empty name");
    if (!p.is_object())
      return violation(err, "host_prof phase '" + name + "' is not an object");
    for (const char* field : {"count", "total_ns", "self_ns"}) {
      const Json* v = p.find(field);
      if (v == nullptr || !v->is_number() || v->number() < 0)
        return violation(err, "host_prof phase '" + name +
                                  "' missing non-negative number '" + field +
                                  "'");
    }
    const double total = p.find("total_ns")->number();
    const double self = p.find("self_ns")->number();
    if (self > total * 1.000001)
      return violation(err,
                       "host_prof phase '" + name + "': self_ns > total_ns");
    self_sum += self;
  }
  // Monotone-summable: phase self times partition measured time, so their
  // sum cannot exceed the available cpu-time envelope. 10% slack covers
  // tick-to-ns calibration error.
  if (self_sum > wall->number() * threads->number() * 1.1)
    return violation(err,
                     "host_prof phase self_ns sum exceeds wall_ns * threads");

  if (const Json* counters = hp.find("counters")) {
    if (!counters->is_object())
      return violation(err, "host_prof 'counters' is not an object");
    for (const auto& [name, v] : counters->members())
      if (name.empty() || !v.is_number() || v.number() < 0)
        return violation(err, "host_prof counter '" + name +
                                  "' is not a non-negative number");
  }
  if (const Json* ips = hp.find("sim_instructions_per_sec"))
    if (!ips->is_number() || ips->number() <= 0)
      return violation(err,
                       "host_prof sim_instructions_per_sec must be > 0 "
                       "when present");
  if (err) err->clear();
  return true;
}

/// Counter triple every armbar.opt.report/v1 program entry (and the totals
/// object) must carry, with the arithmetic-consistency rule (ISSUE 10
/// satellite): a rewrite is either accepted or restored, never both and
/// never invented, so attempted >= accepted + restored always holds (">"
/// only when a stale candidate failed to re-apply — counted attempted but
/// never decided).
struct OptCounters {
  double attempted = 0, accepted = 0, restored = 0;
};

bool read_opt_counters(const Json& entry, const std::string& who,
                       OptCounters* out, std::string* err) {
  for (const char* field : {"rewrites_attempted", "rewrites_accepted",
                            "rewrites_restored"}) {
    const Json* v = entry.find(field);
    if (!v || !v->is_number() || v->number() < 0)
      return violation(err, "opt_report " + who +
                                ": missing non-negative number '" + field +
                                "'");
  }
  out->attempted = entry.find("rewrites_attempted")->number();
  out->accepted = entry.find("rewrites_accepted")->number();
  out->restored = entry.find("rewrites_restored")->number();
  if (out->attempted < out->accepted + out->restored)
    return violation(err, "opt_report " + who +
                              ": rewrites_attempted < rewrites_accepted + "
                              "rewrites_restored");
  return true;
}

/// armbar.opt.report/v1 section gate: schema pinned, per-program and total
/// counters arithmetically consistent, totals equal to the per-program
/// sums, and every recorded rewrite carrying a recognizable verdict.
bool validate_opt_report(const Json& rep, std::string* err) {
  if (!rep.is_object())
    return violation(err, "opt_report is not a JSON object");
  const Json* schema = rep.find("schema");
  if (!schema || !schema->is_string() || schema->str() != kOptReportSchema)
    return violation(err, std::string("opt_report schema must be '") +
                              kOptReportSchema + "'");

  const Json* programs = rep.find("programs");
  if (!programs || !programs->is_array())
    return violation(err, "opt_report missing array field 'programs'");
  OptCounters sum;
  for (const Json& p : programs->items()) {
    const Json* name = p.find("name");
    if (!p.is_object() || !name || !name->is_string() || name->str().empty())
      return violation(err,
                       "opt_report program entries need a non-empty string "
                       "'name'");
    OptCounters c;
    if (!read_opt_counters(p, "program '" + name->str() + "'", &c, err))
      return false;
    sum.attempted += c.attempted;
    sum.accepted += c.accepted;
    sum.restored += c.restored;
    for (const char* field : {"barriers_before", "barriers_after"}) {
      const Json* v = p.find(field);
      if (!v || !v->is_number() || v->number() < 0)
        return violation(err, "opt_report program '" + name->str() +
                                  "': missing non-negative number '" + field +
                                  "'");
    }
    const Json* rewrites = p.find("rewrites");
    if (rewrites == nullptr) continue;
    if (!rewrites->is_array())
      return violation(err, "opt_report program '" + name->str() +
                                "': 'rewrites' is not an array");
    for (const Json& rw : rewrites->items()) {
      const Json* verdict = rw.find("verdict");
      if (!rw.is_object() || !verdict || !verdict->is_string() ||
          (verdict->str() != "accepted" && verdict->str() != "restored"))
        return violation(err, "opt_report program '" + name->str() +
                                  "': rewrite entries need verdict "
                                  "'accepted' or 'restored'");
    }
  }

  const Json* totals = rep.find("totals");
  if (!totals || !totals->is_object())
    return violation(err, "opt_report missing object field 'totals'");
  OptCounters t;
  if (!read_opt_counters(*totals, "totals", &t, err)) return false;
  if (t.attempted != sum.attempted || t.accepted != sum.accepted ||
      t.restored != sum.restored)
    return violation(err,
                     "opt_report totals do not equal the per-program sums");
  if (err) err->clear();
  return true;
}

}  // namespace

bool validate_bench_report(const Json& doc, std::string* err) {
  if (!doc.is_object()) return violation(err, "report is not a JSON object");

  const Json* schema = doc.find("schema");
  if (!schema || !schema->is_string())
    return violation(err, "missing string field 'schema'");
  if (schema->str() != kReportSchema)
    return violation(err, "unknown schema '" + schema->str() + "'");

  for (const char* field : {"bench", "title"}) {
    const Json* v = doc.find(field);
    if (!v || !v->is_string() || v->str().empty())
      return violation(err, std::string("missing non-empty string field '") + field + "'");
  }

  const Json* ok = doc.find("ok");
  if (!ok || !ok->is_bool()) return violation(err, "missing bool field 'ok'");

  const Json* checks = doc.find("checks");
  if (!checks || !checks->is_array())
    return violation(err, "missing array field 'checks'");
  bool all_pass = true;
  for (const Json& c : checks->items()) {
    const Json* claim = c.find("claim");
    const Json* pass = c.find("pass");
    if (!c.is_object() || !claim || !claim->is_string() || !pass || !pass->is_bool())
      return violation(err, "check entries need string 'claim' and bool 'pass'");
    all_pass = all_pass && pass->boolean();
  }
  if (ok->boolean() && !all_pass)
    return violation(err, "'ok' is true but a check failed");

  const Json* metrics = doc.find("metrics");
  if (!metrics || !metrics->is_object())
    return violation(err, "missing object field 'metrics'");
  for (const auto& [name, v] : metrics->members())
    if (!v.is_number())
      return violation(err, "metric '" + name + "' is not a number");

  const Json* hists = doc.find("histograms");
  if (!hists || !hists->is_object())
    return violation(err, "missing object field 'histograms'");
  for (const auto& [name, h] : hists->members()) {
    if (!h.is_object())
      return violation(err, "histogram '" + name + "' is not an object");
    for (const char* field : {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}) {
      const Json* v = h.find(field);
      if (!v || !v->is_number())
        return violation(err, "histogram '" + name + "' missing number '" + field + "'");
    }
    const Json* count = h.find("count");
    const Json* mn = h.find("min");
    const Json* mx = h.find("max");
    const Json* p50 = h.find("p50");
    const Json* p99 = h.find("p99");
    if (count->number() > 0) {
      if (mn->number() > mx->number())
        return violation(err, "histogram '" + name + "': min > max");
      if (p50->number() > p99->number())
        return violation(err, "histogram '" + name + "': p50 > p99");
    }
  }

  const Json* quarantine = doc.find("quarantine");
  if (!quarantine || !quarantine->is_array())
    return violation(err, "missing array field 'quarantine'");
  for (const Json& q : quarantine->items()) {
    const Json* name = q.find("name");
    const Json* status = q.find("status");
    if (!q.is_object() || !name || !name->is_string() || name->str().empty() ||
        !status || !status->is_string() || status->str().empty())
      return violation(
          err, "quarantine entries need non-empty string 'name' and 'status'");
    if (const Json* bundle = q.find("repro_bundle");
        bundle && (!bundle->is_string() || bundle->str().empty()))
      return violation(err, "quarantine entry '" + name->str() +
                                "': 'repro_bundle' must be a non-empty string");
    // Lock-verification entries (ISSUE 9) must name the violated invariant
    // and carry its minimized witness outcome — that pair is what makes
    // the entry independently replayable and auditable.
    if (const Json* kind = q.find("kind");
        kind && kind->is_string() && kind->str() == "lock_invariant") {
      const Json* inv = q.find("invariant");
      const Json* wit = q.find("witness");
      if (!inv || !inv->is_string() || inv->str().empty() || !wit ||
          !wit->is_string() || wit->str().empty())
        return violation(err,
                         "quarantine entry '" + name->str() +
                             "': kind 'lock_invariant' needs non-empty "
                             "string 'invariant' and 'witness'");
    }
  }
  if (ok->boolean() && quarantine->size() > 0)
    return violation(err, "'ok' is true but experiments are quarantined");

  // Digest-hygiene gate: the engine stamps prof_digest_leak=true (per
  // experiment in consolidated reports) when a cached point value carried
  // host-profiling fields. Such a report is rejected outright — its points
  // digests are wall-clock-contaminated and worthless for comparison.
  if (const Json* params = doc.find("params"); params && params->is_object())
    for (const auto& [name, v] : params->members())
      if ((name == "prof_digest_leak" ||
           ends_with(name, "/prof_digest_leak")) &&
          v.is_string() && v.str() == "true")
        return violation(err,
                         "profiling fields leaked into point digests ('" +
                             name + "' is true)");

  if (const Json* hp = doc.find("host_prof"))
    if (!validate_host_prof(*hp, err)) return false;

  if (const Json* rep = doc.find("opt_report"))
    if (!validate_opt_report(*rep, err)) return false;

  if (err) err->clear();
  return true;
}

}  // namespace armbar::trace

#include "runner/experiment.hpp"

#include <algorithm>
#include <cstdio>

#include <chrono>

#include "common/check.hpp"
#include "runner/glob.hpp"
#include "sim/fault/fault.hpp"
#include "sim/verify.hpp"

namespace armbar::runner {

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

bool Registry::add(ExperimentSpec spec) {
  ARMBAR_CHECK_MSG(spec.body != nullptr, "experiment without a body");
  for (const auto& s : specs_)
    ARMBAR_CHECK_MSG(s.name != spec.name, "duplicate experiment name");
  specs_.push_back(std::move(spec));
  return true;
}

std::vector<const ExperimentSpec*> Registry::sorted() const {
  std::vector<const ExperimentSpec*> out;
  out.reserve(specs_.size());
  for (const auto& s : specs_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const ExperimentSpec* a, const ExperimentSpec* b) {
              return a->name < b->name;
            });
  return out;
}

std::vector<const ExperimentSpec*> Registry::match(
    const std::string& filter) const {
  std::vector<const ExperimentSpec*> out;
  for (const ExperimentSpec* s : sorted())
    if (glob_match_any(filter, s->name)) out.push_back(s);
  return out;
}

const ExperimentSpec* Registry::find(const std::string& name) const {
  for (const auto& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

bool ExperimentContext::check(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
  checks_.push_back({claim, ok});
  if (!ok) ++failed_checks_;
  return ok;
}

void ExperimentContext::param(const std::string& name,
                              const std::string& value) {
  params_.emplace_back(name, value);
}

void ExperimentContext::metric(const std::string& name, double value) {
  metrics_recorded_.emplace_back(name, value);
}

void ExperimentContext::fatal(const std::string& reason) {
  check(false, reason);
  throw ExperimentAbort{reason};
}

void ExperimentContext::note_repro_bundle(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  repro_bundle_ = path;
}

std::string ExperimentContext::repro_bundle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repro_bundle_;
}

void ExperimentContext::note_failure_kind(const std::string& kind) {
  std::lock_guard<std::mutex> lock(mu_);
  failure_kind_ = kind;
}

std::string ExperimentContext::failure_kind() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failure_kind_;
}

void ExperimentContext::note_opt_report(trace::Json rep) {
  std::lock_guard<std::mutex> lock(mu_);
  opt_report_ = std::move(rep);
}

trace::Json ExperimentContext::opt_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opt_report_;
}

void ExperimentContext::note_quarantine_param(const std::string& key,
                                              const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_params_.emplace_back(key, value);
}

std::vector<std::pair<std::string, std::string>>
ExperimentContext::quarantine_params() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_params_;
}

Fingerprint ExperimentContext::key() {
  Fingerprint fp;
  fp.mix(kCacheEpoch);
  // Every process-global knob that can change a simulated result must land
  // in the base key (ISSUE 4 audit): the chaos fault plan (seed and all
  // rates) and the invariant-check cadence — a verify-enabled run can
  // throw (and quarantine) where an unverified one completes.
  if (const sim::fault::FaultPlan* plan = sim::fault::global_fault_plan();
      plan != nullptr && plan->enabled()) {
    fp.mix(*plan);
  }
  if (const Cycle every = sim::global_verify_every(); every != 0)
    fp.mix("verify-every").mix(static_cast<std::uint64_t>(every));
  return fp;
}

trace::Json ExperimentContext::cached(
    const Fingerprint& key, const std::string& desc,
    const std::function<trace::Json()>& compute) {
  return cached_impl(
      key, desc, /*instrumentable=*/false,
      [&](trace::Tracer*, trace::MetricsRegistry*) { return compute(); });
}

trace::Json ExperimentContext::cached_instrumented(
    const Fingerprint& key, const std::string& desc,
    const std::function<trace::Json(trace::Tracer*, trace::MetricsRegistry*)>&
        compute) {
  return cached_impl(key, desc, /*instrumentable=*/true, compute);
}

namespace {

/// Reserved host-profiling field names: any of these inside a cached point
/// value means wall-clock leaked into digest material.
bool has_prof_field(const trace::Json& v) {
  if (v.is_object()) {
    for (const auto& [name, member] : v.members()) {
      for (const char* reserved :
           {"host_prof", "host_ns", "prof_ns", "wall_ns", "self_ns",
            "sim_instructions_per_sec"})
        if (name == reserved) return true;
      if (has_prof_field(member)) return true;
    }
  } else if (v.is_array()) {
    for (const trace::Json& item : v.items())
      if (has_prof_field(item)) return true;
  }
  return false;
}

}  // namespace

trace::Json ExperimentContext::cached_impl(
    const Fingerprint& key, const std::string& desc, bool instrumentable,
    const std::function<trace::Json(trace::Tracer*, trace::MetricsRegistry*)>&
        fn) {
  // Graceful degradation gates, checked before any simulation is built.
  // Both throws travel through the pool back to the experiment's caller.
  if (hooks_.interrupted != nullptr && *hooks_.interrupted != 0)
    throw ExperimentInterrupted{};
  if (hooks_.has_deadline && std::chrono::steady_clock::now() > hooks_.deadline)
    throw ExperimentTimeout{"experiment exceeded its wall-clock budget"};
  // One rule: look the point up unless it is traced. The value, counters
  // and histograms all live in the cache entry; only a ring trace needs a
  // real run. Timing is observer-independent, so the value (and the
  // digest) is the same either way.
  trace::Tracer* tracer = instrumentable ? hooks_.tracer : nullptr;
  trace::MetricsRegistry local;
  trace::MetricsRegistry* metrics = instrumentable ? &local : nullptr;
  const std::string hex = key.hex();
  std::optional<trace::Json> found;
  if (hooks_.cache != nullptr && tracer == nullptr)
    found = hooks_.cache->lookup(hex, metrics);
  const bool hit = found.has_value();
  trace::Json value = hit ? std::move(*found) : fn(tracer, metrics);
  if (!hit && hooks_.cache != nullptr)
    hooks_.cache->store(hex, desc, value, metrics);
  Fingerprint pd = key;
  pd.mix(value.dump());
  const bool leaked = has_prof_field(value);
  {
    std::lock_guard<std::mutex> lock(mu_);
    points_digest_ ^= pd.lo();
    ++points_;
    if (hit) ++point_hits_;
    if (leaked) prof_digest_leak_ = true;
    if (metrics != nullptr && hooks_.metrics != nullptr)
      hooks_.metrics->merge(local);
  }
  return value;
}

}  // namespace armbar::runner

#include "fuzz/bundle.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/program.hpp"

namespace armbar::fuzz {
namespace {

using trace::Json;

std::string u64s(std::uint64_t v) { return std::to_string(v); }

// The Json number constructors are ambiguous for uint32_t; go via double.
Json num(std::uint32_t v) { return Json(static_cast<double>(v)); }

bool parse_u64(const Json* j, std::uint64_t* out) {
  if (j == nullptr || !j->is_string() || j->str().empty()) return false;
  const std::string& s = j->str();
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_u32(const Json* j, std::uint32_t* out) {
  if (j == nullptr || !j->is_number() || j->number() < 0) return false;
  *out = static_cast<std::uint32_t>(j->number());
  return true;
}

Json outcomes_to_json(const std::set<model::Outcome>& set) {
  Json arr = Json::array();
  for (const model::Outcome& o : set) {
    Json row = Json::array();
    for (std::uint64_t v : o) row.push(u64s(v));
    arr.push(std::move(row));
  }
  return arr;
}

bool outcomes_from_json(const Json* j, std::set<model::Outcome>* out) {
  if (j == nullptr || !j->is_array()) return false;
  for (const Json& row : j->items()) {
    if (!row.is_array()) return false;
    model::Outcome o;
    for (const Json& v : row.items()) {
      std::uint64_t x = 0;
      if (!parse_u64(&v, &x)) return false;
      o.push_back(x);
    }
    out->insert(std::move(o));
  }
  return true;
}

Json plan_to_json(const sim::fault::FaultPlan& p) {
  Json j = Json::object();
  j.set("seed", u64s(p.seed));
  j.set("barrier_spike_pm", num(p.barrier_spike_pm));
  j.set("barrier_spike_cycles", num(p.barrier_spike_cycles));
  j.set("coh_delay_pm", num(p.coh_delay_pm));
  j.set("coh_delay_cycles", num(p.coh_delay_cycles));
  j.set("coh_duplicate_pm", num(p.coh_duplicate_pm));
  j.set("evict_pm", num(p.evict_pm));
  j.set("sb_stall_pm", num(p.sb_stall_pm));
  j.set("sb_stall_cycles", num(p.sb_stall_cycles));
  return j;
}

bool plan_from_json(const Json& j, sim::fault::FaultPlan* p) {
  if (!j.is_object()) return false;
  return parse_u64(j.find("seed"), &p->seed) &&
         parse_u32(j.find("barrier_spike_pm"), &p->barrier_spike_pm) &&
         parse_u32(j.find("barrier_spike_cycles"), &p->barrier_spike_cycles) &&
         parse_u32(j.find("coh_delay_pm"), &p->coh_delay_pm) &&
         parse_u32(j.find("coh_delay_cycles"), &p->coh_delay_cycles) &&
         parse_u32(j.find("coh_duplicate_pm"), &p->coh_duplicate_pm) &&
         parse_u32(j.find("evict_pm"), &p->evict_pm) &&
         parse_u32(j.find("sb_stall_pm"), &p->sb_stall_pm) &&
         parse_u32(j.find("sb_stall_cycles"), &p->sb_stall_cycles);
}

Json prog_to_json(const model::ConcurrentProgram& p) {
  Json j = Json::object();
  j.set("name", p.name);
  Json threads = Json::array();
  for (const sim::Program& t : p.threads) threads.push(t.serialize());
  j.set("threads", std::move(threads));
  Json init = Json::array();
  for (const auto& [addr, v] : p.init) {
    Json e = Json::object();
    e.set("addr", u64s(addr));
    e.set("value", u64s(v));
    init.push(std::move(e));
  }
  j.set("init", std::move(init));
  Json regs = Json::array();
  for (const auto& [t, r] : p.observe_regs) {
    Json e = Json::array();
    e.push(num(t));
    e.push(num(static_cast<std::uint32_t>(r)));
    regs.push(std::move(e));
  }
  j.set("observe_regs", std::move(regs));
  Json mem = Json::array();
  for (Addr a : p.observe_mem) mem.push(u64s(a));
  j.set("observe_mem", std::move(mem));
  return j;
}

bool prog_from_json(const Json* j, model::ConcurrentProgram* p,
                    std::string* err) {
  if (j == nullptr || !j->is_object()) {
    *err = "program: missing or not an object";
    return false;
  }
  const Json* name = j->find("name");
  if (name == nullptr || !name->is_string()) {
    *err = "program.name: missing";
    return false;
  }
  p->name = name->str();
  const Json* threads = j->find("threads");
  if (threads == nullptr || !threads->is_array() || threads->size() == 0) {
    *err = "program.threads: missing or empty";
    return false;
  }
  for (const Json& t : threads->items()) {
    if (!t.is_string()) {
      *err = "program.threads: entry not a string";
      return false;
    }
    sim::Program tp;
    std::string perr;
    if (!sim::parse_program(t.str(), &tp, &perr)) {
      *err = "program.threads: " + perr;
      return false;
    }
    p->threads.push_back(std::move(tp));
  }
  const Json* init = j->find("init");
  if (init == nullptr || !init->is_array()) {
    *err = "program.init: missing";
    return false;
  }
  for (const Json& e : init->items()) {
    Addr addr = 0;
    std::uint64_t v = 0;
    if (!e.is_object() || !parse_u64(e.find("addr"), &addr) ||
        !parse_u64(e.find("value"), &v)) {
      *err = "program.init: malformed entry";
      return false;
    }
    p->init.emplace_back(addr, v);
  }
  const Json* regs = j->find("observe_regs");
  if (regs == nullptr || !regs->is_array()) {
    *err = "program.observe_regs: missing";
    return false;
  }
  for (const Json& e : regs->items()) {
    if (!e.is_array() || e.size() != 2 || !e.items()[0].is_number() ||
        !e.items()[1].is_number()) {
      *err = "program.observe_regs: malformed entry";
      return false;
    }
    p->observe_regs.emplace_back(
        static_cast<std::uint32_t>(e.items()[0].number()),
        static_cast<sim::Reg>(e.items()[1].number()));
  }
  const Json* mem = j->find("observe_mem");
  if (mem == nullptr || !mem->is_array()) {
    *err = "program.observe_mem: missing";
    return false;
  }
  for (const Json& e : mem->items()) {
    Addr a = 0;
    if (!parse_u64(&e, &a)) {
      *err = "program.observe_mem: malformed entry";
      return false;
    }
    p->observe_mem.push_back(a);
  }
  return true;
}

Json opts_to_json(const DiffOptions& o) {
  Json j = Json::object();
  Json plats = Json::array();
  for (const std::string& p : o.platforms) plats.push(p);
  j.set("platforms", std::move(plats));
  Json plans = Json::array();
  for (const auto& p : o.plans) plans.push(plan_to_json(p));
  j.set("plans", std::move(plans));
  Json skews = Json::array();
  for (std::uint32_t s : o.skews) skews.push(num(s));
  j.set("skews", std::move(skews));
  j.set("max_cycles", u64s(o.max_cycles));
  j.set("verify_every", u64s(o.verify_every));
  j.set("mutation", to_string(o.mutation));
  Json m = Json::object();
  m.set("max_path_instructions", num(o.model.max_path_instructions));
  m.set("max_execs_per_thread", num(o.model.max_execs_per_thread));
  m.set("max_reads_per_thread", num(o.model.max_reads_per_thread));
  m.set("max_value_domain", num(o.model.max_value_domain));
  m.set("max_candidates", u64s(o.model.max_candidates));
  m.set("naive", o.model.naive);
  j.set("model", std::move(m));
  return j;
}

bool opts_from_json(const Json* j, DiffOptions* o, std::string* err) {
  if (j == nullptr || !j->is_object()) {
    *err = "options: missing or not an object";
    return false;
  }
  const Json* plats = j->find("platforms");
  if (plats == nullptr || !plats->is_array() || plats->size() == 0) {
    *err = "options.platforms: missing or empty";
    return false;
  }
  for (const Json& p : plats->items()) {
    if (!p.is_string()) {
      *err = "options.platforms: entry not a string";
      return false;
    }
    o->platforms.push_back(p.str());
  }
  const Json* plans = j->find("plans");
  if (plans == nullptr || !plans->is_array() || plans->size() == 0) {
    *err = "options.plans: missing or empty";
    return false;
  }
  for (const Json& p : plans->items()) {
    sim::fault::FaultPlan plan;
    if (!plan_from_json(p, &plan)) {
      *err = "options.plans: malformed entry";
      return false;
    }
    o->plans.push_back(plan);
  }
  const Json* skews = j->find("skews");
  if (skews == nullptr || !skews->is_array() || skews->size() == 0) {
    *err = "options.skews: missing or empty";
    return false;
  }
  for (const Json& s : skews->items()) {
    std::uint32_t v = 0;
    if (!parse_u32(&s, &v)) {
      *err = "options.skews: malformed entry";
      return false;
    }
    o->skews.push_back(v);
  }
  if (!parse_u64(j->find("max_cycles"), &o->max_cycles) ||
      !parse_u64(j->find("verify_every"), &o->verify_every)) {
    *err = "options.max_cycles/verify_every: malformed";
    return false;
  }
  const Json* mut = j->find("mutation");
  if (mut == nullptr || !mut->is_string() ||
      !mutation_from_string(mut->str(), &o->mutation)) {
    *err = "options.mutation: malformed";
    return false;
  }
  const Json* m = j->find("model");
  if (m == nullptr || !m->is_object() ||
      !parse_u32(m->find("max_path_instructions"),
                 &o->model.max_path_instructions) ||
      !parse_u32(m->find("max_execs_per_thread"),
                 &o->model.max_execs_per_thread) ||
      !parse_u32(m->find("max_reads_per_thread"),
                 &o->model.max_reads_per_thread) ||
      !parse_u32(m->find("max_value_domain"), &o->model.max_value_domain) ||
      !parse_u64(m->find("max_candidates"), &o->model.max_candidates)) {
    *err = "options.model: malformed";
    return false;
  }
  // Optional (absent in pre-ISSUE-5 bundles, which all used the then-only
  // naive engine semantics — outcome sets are engine-independent, so
  // replaying them on the POR default is still bit-exact).
  if (const Json* naive = m->find("naive"); naive != nullptr) {
    if (!naive->is_bool()) {
      *err = "options.model.naive: not a bool";
      return false;
    }
    o->model.naive = naive->boolean();
  }
  return true;
}

}  // namespace

ReproBundle make_bundle(const model::ConcurrentProgram& prog,
                        const DiffOptions& opts, std::uint64_t gen_seed,
                        const DiffResult& result) {
  ReproBundle b;
  b.prog = prog;
  b.opts = opts;
  b.gen_seed = gen_seed;
  b.expect_digest = result.digest();
  b.expected_allowed = result.allowed;
  b.observed = result.observed;
  if (!result.failures.empty()) {
    const DiffFailure& f = result.failures.front();
    b.failure_kind = f.kind;
    b.detail = f.detail;
    b.diagnostic = f.diagnostic;
    b.has_diagnostic = f.has_diagnostic;
  }
  return b;
}

trace::Json bundle_to_json(const ReproBundle& b) {
  Json j = Json::object();
  j.set("schema", kBundleSchema);
  j.set("gen_seed", u64s(b.gen_seed));
  j.set("failure_kind", b.failure_kind);
  j.set("detail", b.detail);
  j.set("expect_digest", u64s(b.expect_digest));
  j.set("program", prog_to_json(b.prog));
  j.set("options", opts_to_json(b.opts));
  j.set("expected_allowed", outcomes_to_json(b.expected_allowed));
  j.set("observed", outcomes_to_json(b.observed));
  if (b.has_diagnostic) j.set("diagnostic", b.diagnostic.to_json());
  if (!b.scenario.empty()) {
    Json lv = Json::object();
    lv.set("scenario", b.scenario);
    lv.set("invariant", b.invariant);
    Json w = Json::array();
    for (std::uint64_t v : b.witness) w.push(u64s(v));
    lv.set("witness", std::move(w));
    lv.set("crosschecked", b.lock_crosschecked);
    j.set("lockver", std::move(lv));
  }
  return j;
}

bool bundle_from_json(const trace::Json& j, ReproBundle* out,
                      std::string* err) {
  *out = ReproBundle{};
  if (!j.is_object()) {
    *err = "bundle: not a JSON object";
    return false;
  }
  const Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str() != kBundleSchema) {
    *err = std::string("bundle.schema: expected \"") + kBundleSchema + '"';
    return false;
  }
  if (!parse_u64(j.find("gen_seed"), &out->gen_seed) ||
      !parse_u64(j.find("expect_digest"), &out->expect_digest)) {
    *err = "bundle.gen_seed/expect_digest: malformed";
    return false;
  }
  const Json* kind = j.find("failure_kind");
  const Json* detail = j.find("detail");
  if (kind == nullptr || !kind->is_string() || detail == nullptr ||
      !detail->is_string()) {
    *err = "bundle.failure_kind/detail: malformed";
    return false;
  }
  out->failure_kind = kind->str();
  out->detail = detail->str();
  if (!prog_from_json(j.find("program"), &out->prog, err)) return false;
  if (!opts_from_json(j.find("options"), &out->opts, err)) return false;
  if (!outcomes_from_json(j.find("expected_allowed"),
                          &out->expected_allowed) ||
      !outcomes_from_json(j.find("observed"), &out->observed)) {
    *err = "bundle.expected_allowed/observed: malformed";
    return false;
  }
  if (const Json* d = j.find("diagnostic"); d != nullptr) {
    if (!sim::SimDiagnostic::from_json(*d, &out->diagnostic)) {
      *err = "bundle.diagnostic: malformed";
      return false;
    }
    out->has_diagnostic = true;
  }
  // Optional (absent in bundles captured by the differential fuzzer; only
  // lock-verification bundles carry it). Strict when present.
  if (const Json* lv = j.find("lockver"); lv != nullptr) {
    if (!lv->is_object()) {
      *err = "bundle.lockver: not an object";
      return false;
    }
    const Json* sc = lv->find("scenario");
    const Json* inv = lv->find("invariant");
    if (sc == nullptr || !sc->is_string() || sc->str().empty() ||
        inv == nullptr || !inv->is_string()) {
      *err = "bundle.lockver.scenario/invariant: malformed";
      return false;
    }
    out->scenario = sc->str();
    out->invariant = inv->str();
    const Json* w = lv->find("witness");
    if (w == nullptr || !w->is_array()) {
      *err = "bundle.lockver.witness: malformed";
      return false;
    }
    for (const Json& v : w->items()) {
      std::uint64_t x = 0;
      if (!parse_u64(&v, &x)) {
        *err = "bundle.lockver.witness: malformed entry";
        return false;
      }
      out->witness.push_back(x);
    }
    const Json* cc = lv->find("crosschecked");
    if (cc == nullptr || !cc->is_bool()) {
      *err = "bundle.lockver.crosschecked: malformed";
      return false;
    }
    out->lock_crosschecked = cc->boolean();
  }
  return true;
}

bool write_bundle(const std::string& path, const ReproBundle& b,
                  std::string* err) {
  if (trace::write_file(path, bundle_to_json(b).dump(2) + "\n")) return true;
  *err = "cannot write " + path;
  return false;
}

bool load_bundle(const std::string& path, ReproBundle* out, std::string* err) {
  std::ifstream f(path);
  if (!f) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  std::string jerr;
  const Json j = Json::parse(buf.str(), &jerr);
  if (!jerr.empty()) {
    *err = path + ": " + jerr;
    return false;
  }
  return bundle_from_json(j, out, err);
}

}  // namespace armbar::fuzz

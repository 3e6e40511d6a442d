#include "litmus/golden.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/platform.hpp"

namespace armbar::litmus {
namespace {

/// "(0,23)" -> {0, 23}. Returns false on malformed input.
bool parse_outcome(const std::string& tok, model::Outcome* out) {
  if (tok.size() < 2 || tok.front() != '(' || tok.back() != ')')
    return false;
  out->clear();
  if (tok == "()") return true;  // zero-arity outcome
  std::stringstream body(tok.substr(1, tok.size() - 2));
  std::string field;
  while (std::getline(body, field, ',')) {
    if (field.empty()) return false;
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(field.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    out->push_back(v);
  }
  return !out->empty();
}

bool parse_outcome_set(std::istringstream& rest,
                       std::set<model::Outcome>* out) {
  out->clear();
  std::string tok;
  while (rest >> tok) {
    model::Outcome o;
    if (!parse_outcome(tok, &o)) return false;
    out->insert(std::move(o));
  }
  return true;
}

void render_outcome_set(std::ostringstream& os,
                        const std::set<model::Outcome>& set) {
  for (const model::Outcome& o : set) os << ' ' << model::to_string(o);
}

}  // namespace

GoldenEntry collect_golden(const Table1Shape& s,
                           const model::ModelOptions& mopts) {
  GoldenEntry e;
  e.shape = s.name;
  e.weak = s.weak;

  const model::OutcomeSet set = model::enumerate_outcomes(s.model_prog, mopts);
  if (!set.ok() || !set.complete) {
    std::fprintf(stderr,
                 "collect_golden(%s): model must enumerate exactly (%s)\n",
                 s.name.c_str(),
                 set.ok() ? "budget exhausted" : set.error.c_str());
    std::abort();
  }
  e.model_allowed = set.allowed;
  e.weak_allowed = set.allows(s.weak);

  const std::size_t nthreads = s.sim.prog.threads.size();
  for (const sim::PlatformSpec& spec : sim::all_platforms()) {
    if (spec.total_cores() < nthreads) continue;
    LitmusConfig cfg;
    cfg.platform = spec;
    for (std::size_t t = 0; t < nthreads; ++t)
      cfg.binding.push_back(static_cast<CoreId>(t));
    const LitmusReport rep = run_litmus(s.sim, cfg);
    std::set<model::Outcome>& observed = e.sim_observed[spec.name];
    for (const auto& [o, n] : rep.histogram) observed.insert(o);
  }
  return e;
}

std::string render_golden(const GoldenEntry& e) {
  std::ostringstream os;
  os << "# " << kGoldenSchema << " — pinned outcome sets for " << e.shape
     << "\n";
  os << "# Regenerate: ARMBAR_REGEN_GOLDEN=1 ./test_litmus_golden\n";
  os << "shape " << e.shape << "\n";
  os << "weak " << model::to_string(e.weak) << "\n";
  os << "weak-allowed " << (e.weak_allowed ? 1 : 0) << "\n";
  os << "model";
  render_outcome_set(os, e.model_allowed);
  os << "\n";
  for (const auto& [platform, observed] : e.sim_observed) {
    os << "sim " << platform;
    render_outcome_set(os, observed);
    os << "\n";
  }
  return os.str();
}

bool parse_golden(const std::string& text, GoldenEntry* out,
                  std::string* err) {
  *out = GoldenEntry{};
  bool saw_shape = false, saw_weak = false, saw_allowed = false,
       saw_model = false;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    if (err) *err = "line " + std::to_string(lineno) + ": " + why;
    return false;
  };
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream rest(line);
    std::string key;
    rest >> key;
    if (key == "shape") {
      if (!(rest >> out->shape)) return fail("missing shape name");
      saw_shape = true;
    } else if (key == "weak") {
      std::string tok;
      if (!(rest >> tok) || !parse_outcome(tok, &out->weak))
        return fail("bad weak outcome");
      saw_weak = true;
    } else if (key == "weak-allowed") {
      int v = -1;
      if (!(rest >> v) || (v != 0 && v != 1))
        return fail("weak-allowed must be 0 or 1");
      out->weak_allowed = v == 1;
      saw_allowed = true;
    } else if (key == "model") {
      if (!parse_outcome_set(rest, &out->model_allowed))
        return fail("bad model outcome set");
      saw_model = true;
    } else if (key == "sim") {
      std::string platform;
      if (!(rest >> platform)) return fail("sim line missing platform");
      if (!parse_outcome_set(rest, &out->sim_observed[platform]))
        return fail("bad sim outcome set");
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  if (!saw_shape || !saw_weak || !saw_allowed || !saw_model)
    return fail("incomplete entry (need shape/weak/weak-allowed/model)");
  return true;
}

std::string golden_filename(const std::string& shape_name) {
  std::string id = shape_name;
  for (char& c : id)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return id + ".golden";
}

}  // namespace armbar::litmus

#include "fuzz/diff.hpp"

#include <chrono>
#include <sstream>

#include "prof/prof.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"

namespace armbar::fuzz {
namespace {

constexpr std::size_t kMaxFailures = 16;

}  // namespace

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

const char* to_string(SimMutation m) {
  switch (m) {
    case SimMutation::kNone: return "none";
    case SimMutation::kDropDmbSt: return "drop-dmb-st";
    case SimMutation::kDropDmbLd: return "drop-dmb-ld";
    case SimMutation::kDropDmbFull: return "drop-dmb-full";
    case SimMutation::kDropRelAcq: return "drop-rel-acq";
  }
  return "?";
}

bool mutation_from_string(const std::string& s, SimMutation* out) {
  for (auto m : {SimMutation::kNone, SimMutation::kDropDmbSt,
                 SimMutation::kDropDmbLd, SimMutation::kDropDmbFull,
                 SimMutation::kDropRelAcq}) {
    if (s == to_string(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

sim::Program apply_mutation(const sim::Program& p, SimMutation m) {
  if (m == SimMutation::kNone) return p;
  sim::Program out = p;
  for (sim::Instr& ins : out.code) {
    if (m == SimMutation::kDropRelAcq) {
      if (ins.op == sim::Op::kStlr) ins.op = sim::Op::kStr;
      if (ins.op == sim::Op::kLdar || ins.op == sim::Op::kLdapr)
        ins.op = sim::Op::kLdr;
      continue;
    }
    const bool drop =
        (m == SimMutation::kDropDmbSt &&
         (ins.op == sim::Op::kDmbSt || ins.op == sim::Op::kDsbSt)) ||
        (m == SimMutation::kDropDmbLd &&
         (ins.op == sim::Op::kDmbLd || ins.op == sim::Op::kDsbLd)) ||
        (m == SimMutation::kDropDmbFull &&
         (ins.op == sim::Op::kDmbFull || ins.op == sim::Op::kDsbFull));
    if (drop) ins = {sim::Op::kNop};
  }
  return out;
}

DiffOptions DiffOptions::defaults(std::uint32_t chaos_seeds) {
  DiffOptions o;
  for (const auto& spec : sim::all_platforms()) o.platforms.push_back(spec.name);
  o.plans.push_back({});  // clean run first
  for (std::uint32_t s = 1; s <= chaos_seeds; ++s)
    o.plans.push_back(sim::fault::FaultPlan::chaos(s));
  o.skews = {0, 11};
  return o;
}

std::uint64_t DiffResult::digest() const {
  std::ostringstream os;
  os << "v1|" << model_valid << '|' << model_error << '|' << runs << "|A";
  for (const auto& o : allowed) os << model::to_string(o);
  os << "|O";
  for (const auto& o : observed) os << model::to_string(o);
  os << "|F";
  for (const auto& f : failures) {
    os << f.kind << '@' << f.at.platform << '/' << f.at.plan_index << '/'
       << f.at.skew << ':' << model::to_string(f.observed) << ':'
       << (f.has_diagnostic ? f.diagnostic.kind + ";" + f.diagnostic.summary
                            : std::string());
  }
  return fnv1a(os.str());
}

std::string DiffResult::summary() const {
  std::ostringstream os;
  os << runs << " runs, " << observed.size() << "/" << allowed.size()
     << " outcomes observed/allowed";
  if (!model_valid) os << ", model invalid (" << model_error << ")";
  if (!failures.empty()) {
    os << ", " << failures.size() << " failure(s):";
    for (const auto& f : failures)
      os << " [" << f.kind << " on " << f.at.platform << " plan#"
         << f.at.plan_index << " skew " << f.at.skew << ": " << f.detail
         << "]";
  }
  return os.str();
}

DiffResult run_diff(const model::ConcurrentProgram& prog,
                    const DiffOptions& opts) {
  ARMBAR_PROF_SCOPE(kFuzzDiff);
  DiffResult res;

  const auto model_start = std::chrono::steady_clock::now();
  const model::OutcomeSet set = model::enumerate_outcomes(prog, opts.model);
  res.model_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - model_start)
          .count());
  res.model_candidates = set.candidates;
  if (!set.ok() || !set.complete) {
    res.model_valid = false;
    res.model_error = set.ok() ? "enumeration budget exhausted" : set.error;
  }
  res.allowed = set.allowed;
  const auto sim_start = std::chrono::steady_clock::now();

  // Deduplicate failures on (kind, platform, observed) so one systematic
  // divergence doesn't flood the record across plans and skews.
  std::set<std::string> seen;
  auto add_failure = [&](DiffFailure f) {
    std::ostringstream key;
    key << f.kind << '|' << f.at.platform << '|'
        << model::to_string(f.observed);
    if (!seen.insert(key.str()).second) return;
    if (res.failures.size() < kMaxFailures) res.failures.push_back(std::move(f));
  };

  for (const std::string& pname : opts.platforms) {
    const sim::PlatformSpec spec = sim::platform_by_name(pname);
    if (spec.total_cores() < prog.threads.size()) continue;
    for (std::size_t pi = 0; pi < opts.plans.size(); ++pi) {
      const sim::fault::FaultPlan& plan = opts.plans[pi];
      for (std::uint32_t skew : opts.skews) {
        // Per-thread stagger, prepended to the whole thread, grows with the
        // thread index so threads don't just shift together.
        std::vector<sim::Program> progs;
        progs.reserve(prog.threads.size());
        for (std::size_t t = 0; t < prog.threads.size(); ++t)
          progs.push_back(sim::insert_nops(
              apply_mutation(prog.threads[t], opts.mutation), 0,
              skew * static_cast<std::uint32_t>(t + 1) % 32));

        sim::Machine m(spec, 1u << 20);
        for (const auto& [addr, v] : prog.init) m.mem().poke(addr, v);
        for (std::size_t t = 0; t < progs.size(); ++t)
          m.load_program(static_cast<CoreId>(t), progs[t]);

        sim::RunConfig rc;
        rc.max_cycles = opts.max_cycles;
        rc.verify_every = opts.verify_every;
        if (plan.enabled()) rc.fault = &plan;

        DiffRunRef at{pname, pi, skew};
        ++res.runs;
        try {
          const sim::RunResult rr = m.run(rc);
          if (!rr.completed) {
            DiffFailure f;
            f.kind = "timeout";
            f.at = at;
            f.detail = "no completion within " +
                       std::to_string(opts.max_cycles) + " cycles";
            add_failure(std::move(f));
            continue;
          }
          const model::Outcome outcome =
              m.extract_state(prog.observe_regs, prog.observe_mem);
          res.observed.insert(outcome);
          if (res.model_valid && set.allowed.count(outcome) == 0) {
            DiffFailure f;
            f.kind = "mismatch";
            f.at = at;
            f.observed = outcome;
            f.detail = "outcome " + model::to_string(outcome) +
                       " outside model set " + model::to_string(set);
            add_failure(std::move(f));
          }
        } catch (const sim::SimError& e) {
          DiffFailure f;
          f.kind = e.diagnostic().kind;  // invariant_violation | hang
          f.at = at;
          f.diagnostic = e.diagnostic();
          f.has_diagnostic = true;
          f.detail = e.diagnostic().summary;
          add_failure(std::move(f));
        }
      }
    }
  }
  res.sim_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - sim_start)
          .count());
  return res;
}

}  // namespace armbar::fuzz

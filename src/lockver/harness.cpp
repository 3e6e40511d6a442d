#include "lockver/harness.hpp"

#include <sstream>

namespace armbar::lockver {

namespace {

/// Shared by verify() and replay_lock_bundle(): the verdict is a pure
/// function of (program, invariants, diff grid, crosscheck flag), so a
/// bundle replays bit-exactly from its own payload.
VerifyResult verify_impl(const model::ConcurrentProgram& prog,
                         const std::vector<Invariant>& invariants,
                         const std::string& scenario_name,
                         const fuzz::DiffOptions& dopts, bool crosscheck) {
  VerifyResult res;
  res.scenario = scenario_name;
  res.model = model::enumerate_outcomes(prog, dopts.model);

  if (res.model.ok() && res.model.complete) {
    for (const Invariant& inv : invariants) {
      Violation v;
      v.invariant = inv.name;
      v.description = inv.description;
      // std::set iterates in lexicographic order, so the first violating
      // outcome *is* the minimized witness.
      for (const model::Outcome& o : res.model.allowed) {
        if (!inv.violated(o)) continue;
        if (v.model_hits == 0) v.witness = o;
        ++v.model_hits;
      }
      if (v.model_hits > 0) res.violations.push_back(std::move(v));
    }
  }

  if (crosscheck) {
    res.crosschecked = true;
    res.diff = fuzz::run_diff(prog, dopts);
    // The sim is allowed to be *stronger* than the model, so a violating
    // outcome may be model-allowed yet never simulated; but if the sim
    // actually produced one, record it (it upgrades the evidence from
    // "architecturally possible" to "observed on a timing machine").
    for (Violation& v : res.violations) {
      const Invariant* inv = nullptr;
      for (const Invariant& i : invariants)
        if (i.name == v.invariant) inv = &i;
      if (inv == nullptr) continue;
      for (const model::Outcome& o : res.diff.observed)
        if (inv->violated(o)) ++v.sim_hits;
    }
  }
  return res;
}

}  // namespace

fuzz::DiffOptions VerifyOptions::diff_options() const {
  fuzz::DiffOptions d = fuzz::DiffOptions::defaults(chaos_seeds);
  if (!platforms.empty()) d.platforms = platforms;
  d.skews = skews;
  d.max_cycles = max_cycles;
  d.model = model;
  return d;
}

std::uint64_t VerifyResult::digest() const {
  std::ostringstream os;
  os << "lockver1|" << scenario << '|' << model.ok() << '|' << model.complete
     << "|A";
  for (const auto& o : model.allowed) os << model::to_string(o);
  os << "|V";
  for (const Violation& v : violations)
    os << v.invariant << ':' << model::to_string(v.witness) << ':'
       << v.model_hits << ':' << v.sim_hits << ';';
  os << "|C" << crosschecked;
  if (crosschecked) os << ':' << diff.digest();
  return fuzz::fnv1a(os.str());
}

std::string VerifyResult::summary() const {
  std::ostringstream os;
  os << scenario << ": ";
  if (!model.ok()) {
    os << "model error (" << model.error << ")";
    return os.str();
  }
  if (!model.complete) {
    os << "model enumeration incomplete (budget hit)";
    return os.str();
  }
  os << model.allowed.size() << " allowed outcome(s)";
  if (violations.empty()) {
    os << ", all invariants hold";
  } else {
    os << ", " << violations.size() << " invariant violation(s):";
    for (const Violation& v : violations)
      os << " [" << v.invariant << " witness " << model::to_string(v.witness)
         << " model-hits " << v.model_hits << " sim-hits " << v.sim_hits
         << "]";
  }
  if (crosschecked) {
    os << "; sim cross-check: " << diff.runs << " runs, "
       << (diff.ok() ? "clean" : "FAILED (" + diff.summary() + ")");
  }
  return os.str();
}

VerifyResult verify(const LockScenario& sc, const VerifyOptions& opts) {
  return verify_impl(sc.prog, sc.invariants, sc.name, opts.diff_options(),
                     opts.sim_crosscheck);
}

fuzz::ReproBundle make_lock_bundle(const LockScenario& sc,
                                   const VerifyOptions& opts,
                                   const VerifyResult& result) {
  fuzz::ReproBundle b;
  b.prog = sc.prog;
  b.opts = opts.diff_options();
  b.gen_seed = 0;
  b.failure_kind = kLockInvariantKind;
  b.expect_digest = result.digest();
  b.expected_allowed = result.model.allowed;
  if (result.crosschecked) b.observed = result.diff.observed;
  b.scenario = sc.name;
  b.lock_crosschecked = result.crosschecked;
  if (!result.violations.empty()) {
    const Violation& v = result.violations.front();
    b.invariant = v.invariant;
    b.witness = v.witness;
    b.detail = sc.name + ": invariant '" + v.invariant +
               "' violated, witness " + model::to_string(v.witness) + " (" +
               std::to_string(v.model_hits) + " model outcome(s))";
  } else {
    b.detail = result.summary();
  }
  return b;
}

ReplayVerdict replay_lock_bundle(const fuzz::ReproBundle& b) {
  ReplayVerdict verdict;
  LockScenario sc;
  if (b.failure_kind != kLockInvariantKind) {
    verdict.detail = "bundle kind is '" + b.failure_kind + "', not '" +
                     kLockInvariantKind + "'";
    return verdict;
  }
  if (!scenario_by_name(b.scenario, &sc)) {
    verdict.detail = "unknown lockver scenario '" + b.scenario + "'";
    return verdict;
  }
  verdict.loaded = true;

  // Re-verify the *bundled* program with the current invariant predicates:
  // the program text is the replay identity; the scenario name only
  // resolves the invariant encodings.
  const VerifyResult fresh = verify_impl(b.prog, sc.invariants, b.scenario,
                                         b.opts, b.lock_crosschecked);
  const std::uint64_t digest = fresh.digest();
  const bool same_digest = digest == b.expect_digest;
  bool violation_recurred = false;
  bool witness_recurred = false;
  for (const Violation& v : fresh.violations) {
    if (v.invariant != b.invariant) continue;
    violation_recurred = true;
    witness_recurred = v.witness == b.witness;
  }
  std::ostringstream os;
  os << fresh.summary();
  if (!same_digest)
    os << "; digest diverged (expected " << b.expect_digest << ", got "
       << digest << ")";
  if (!violation_recurred)
    os << "; invariant '" << b.invariant << "' no longer fires";
  else if (!witness_recurred)
    os << "; witness changed";
  verdict.detail = os.str();
  verdict.reproduced = same_digest && violation_recurred && witness_recurred;
  return verdict;
}

}  // namespace armbar::lockver

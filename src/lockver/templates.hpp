// Micro-ISA lock templates for the lock-verification harness (ISSUE 9).
//
// Each template is a *pre-linearized* encoding of one lock family's
// acquire/release handoff as a litmus-style model::ConcurrentProgram: the
// queue/ticket order is fixed up front (T0 holds the lock, T1 is the next
// waiter, ...) and the spin loops are collapsed to a single sampled read
// with a forward branch guarding the critical section. This is deliberate:
// the axiomatic checker covers straight-line/forward-branch programs
// without LDXR/STXR/SWP/WFE, and what the paper's barrier weakenings
// endanger is exactly the *ordering* of the handoff path — the RMW
// atomicity of ticket-taking is orthogonal (guaranteed by the exclusives)
// and is exercised by the simulator-side runs instead.
//
// Every family comes in two strengths, read from simprog::handoff_edges,
// the one edge table the simulator's lock programs are emitted from too:
//   * kStrong    — `dmb ld` on the acquire edges, `dmb ish` on the
//                  release edges (and on FFWD's line-4 request read);
//   * kWeakened  — the paper's Table 3 suggestion: LDAR on the grant/flag
//                  read, STLR on the grant store (ticket/CNA) or `dmb st`
//                  on the store->store response path (FFWD).
// Both must satisfy every invariant; the PlantedBug modes each edit one
// table entry, removing or downgrading one required edge, and must make at
// least one invariant fail — that asymmetry is the harness's proof that it
// can catch ordering bugs.
//
// Invariants are named predicates over the model outcome tuple, so a
// violation serializes as (scenario name, invariant name, witness outcome)
// into an armbar.repro/v1 bundle and replays by name.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "simprog/locks_sim.hpp"

namespace armbar::lockver {

using simprog::LockFamily;
using simprog::PlantedBug;
using simprog::Strength;

const char* to_string(LockFamily f);
const char* to_string(Strength s);
const char* to_string(PlantedBug b);
bool family_from_string(const std::string& s, LockFamily* out);
bool strength_from_string(const std::string& s, Strength* out);
bool planted_from_string(const std::string& s, PlantedBug* out);

/// A lock-correctness invariant: `violated(outcome)` is true when the
/// outcome is one a correct lock must never produce. The model allowing
/// such an outcome — or the simulator observing one — is a verification
/// failure with that outcome as the witness.
struct Invariant {
  std::string name;         ///< e.g. "mutual-exclusion"
  std::string description;  ///< what the forbidden outcome means
  std::function<bool(const model::Outcome&)> violated;
};

/// One verifiable lock scenario: the model program plus its invariants and
/// the static per-acquire barrier cost of the variant (dmb/dsb count on
/// the acquire+release path, HandoffEdges::dmbs() — the number the
/// cna_scaling experiment confirms dynamically).
struct LockScenario {
  LockFamily family = LockFamily::kTicket;
  Strength strength = Strength::kStrong;
  PlantedBug planted = PlantedBug::kNone;
  std::string name;  ///< "family/strength" or "family/strength+bug"
  model::ConcurrentProgram prog;
  std::vector<Invariant> invariants;
  std::uint32_t handoff_dmbs = 0;  ///< standalone dmb/dsb per handoff
};

/// Build one scenario from handoff_edges(f, s, b). Planted bugs are
/// applied relative to the chosen strength (e.g. kDropRelease removes the
/// dmb in kStrong and turns the STLR into a plain STR in kWeakened).
LockScenario make_scenario(LockFamily f, Strength s,
                           PlantedBug b = PlantedBug::kNone);

/// The six clean scenarios (3 families x 2 strengths), in a fixed order.
std::vector<LockScenario> all_clean_scenarios();

/// Parse "family/strength" or "family/strength+bug" (the LockScenario
/// name format) and rebuild the scenario. Returns false on unknown names.
bool scenario_by_name(const std::string& name, LockScenario* out);

}  // namespace armbar::lockver

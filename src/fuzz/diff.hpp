// Differential harness: simulator vs. axiomatic reference model (ISSUE 4).
//
// For one concurrent program, enumerate the model's allowed final-state set
// once, then run the *same* sim::Program objects on the timing simulator
// across a grid of platform presets × fault plans (chaos seeds) × start
// skews, extracting the final state of every run and flagging:
//   * "mismatch"            — an outcome outside the model's allowed set
//                             (only when the model enumeration is complete);
//   * "invariant_violation" — the machine verifier fired mid-run;
//   * "hang"                — the forward-progress watchdog fired;
//   * "timeout"             — max_cycles elapsed without completion.
//
// The check direction is sim ⊆ model: the simulator is documented to be
// strictly stronger than the architecture on some shapes, so the model set
// not being fully covered is expected; an outcome outside it never is.
//
// A DiffOptions carries only serializable data (platform *names*, explicit
// fault plans) so a failing configuration round-trips through a repro
// bundle and replays bit-exactly — DiffResult::digest() is the identity
// the replay is checked against.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "model/model.hpp"
#include "sim/fault/fault.hpp"
#include "sim/verify.hpp"

namespace armbar::fuzz {

/// FNV-1a 64 over a canonical rendering: DiffResult's and lockver's digests.
std::uint64_t fnv1a(std::string_view s);

/// Test-only simulator-side program mutation: the simulator runs the
/// mutated program while the model judges the original. Used to plant a
/// known ordering bug and prove the pipeline catches, minimizes and
/// replays it (ISSUE 4 acceptance); kNone in all production fuzzing.
enum class SimMutation : std::uint8_t {
  kNone,
  kDropDmbSt,    ///< every dmb/dsb ishst becomes a nop
  kDropDmbLd,    ///< every dmb/dsb ishld becomes a nop
  kDropDmbFull,  ///< every dmb/dsb ish becomes a nop
  kDropRelAcq,   ///< stlr -> str, ldar/ldapr -> ldr (release/acquire lost)
};
const char* to_string(SimMutation m);
bool mutation_from_string(const std::string& s, SimMutation* out);
/// Apply the mutation (barrier -> nop, preserving indices/targets).
sim::Program apply_mutation(const sim::Program& p, SimMutation m);

struct DiffOptions {
  std::vector<std::string> platforms;          ///< preset names
  std::vector<sim::fault::FaultPlan> plans;    ///< one entry per run layer;
                                               ///< a disabled plan = clean
  std::vector<std::uint32_t> skews;            ///< per-run start stagger
  Cycle max_cycles = 2'000'000;
  Cycle verify_every = 4096;                   ///< 0 = no invariant sweeps
  SimMutation mutation = SimMutation::kNone;
  model::ModelOptions model;

  /// The acceptance-grade grid: every platform preset, one clean plan plus
  /// `chaos_seeds` chaos plans, two start skews.
  static DiffOptions defaults(std::uint32_t chaos_seeds = 8);
};

/// Where in the run grid a failure occurred.
struct DiffRunRef {
  std::string platform;
  std::size_t plan_index = 0;
  std::uint32_t skew = 0;
};

struct DiffFailure {
  std::string kind;  ///< "mismatch"|"invariant_violation"|"hang"|"timeout"
  DiffRunRef at;
  model::Outcome observed;  ///< mismatch only
  sim::SimDiagnostic diagnostic;
  bool has_diagnostic = false;
  std::string detail;  ///< one-line human summary
};

struct DiffResult {
  bool model_valid = true;  ///< model enumerated without error and complete
  std::string model_error;
  std::uint64_t runs = 0;
  std::set<model::Outcome> allowed;   ///< the model's set
  std::set<model::Outcome> observed;  ///< every outcome the simulator hit
  std::vector<DiffFailure> failures;  ///< deduplicated, bounded

  // Throughput accounting (ISSUE 5). Wall-clock, hence EXCLUDED from
  // digest(): a repro replay matches on behaviour, never on timing.
  std::uint64_t model_ns = 0;          ///< enumerate_outcomes wall time
  std::uint64_t sim_ns = 0;            ///< simulator grid wall time
  std::uint64_t model_candidates = 0;  ///< executions the checker examined

  bool ok() const { return failures.empty(); }
  /// Order-independent identity of the differential behaviour: covers the
  /// allowed set, the observed set and every failure record. A repro bundle
  /// replays bit-exactly iff digests match.
  std::uint64_t digest() const;
  std::string summary() const;
};

DiffResult run_diff(const model::ConcurrentProgram& prog,
                    const DiffOptions& opts);

}  // namespace armbar::fuzz

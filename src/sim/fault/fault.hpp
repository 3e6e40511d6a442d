// Deterministic, seeded fault injection for the simulator (ISSUE 3).
//
// A FaultPlan perturbs *timing within the architectural envelope* — it
// never forges values, drops writes, or breaks coherence; it only makes the
// legal weak behaviours of the machine wider and the schedules stranger:
//   * latency spikes on ACE barrier transactions (a congested interconnect
//     answering DMB/DSB round trips late),
//   * delayed coherence responses (GetS/GetM transfers taking longer),
//   * duplicated-but-idempotent invalidation delivery (a snoop echoed
//     twice, which real fabrics may do; victims must tolerate it),
//   * forced clean cache-line evictions (a shared copy silently dropped,
//     turning a hit into a refetch),
//   * store-buffer drain stalls (a drain request postponed at the moment
//     it would have started).
//
// Because every perturbation stays inside what the ARM memory model already
// allows, any litmus outcome or qualitative paper claim (allowed-outcome
// sets, barrier-cost orderings) must be invariant under an arbitrary plan —
// which is exactly what tests/litmus/litmus_fault_test.cpp asserts. The
// engine doubles as a chaos harness for the runner (--fault-seed).
//
// Determinism: the simulator is single-threaded and event-ordered, and the
// engine holds one xoshiro stream per core, so a (plan, program, platform)
// triple always produces the same perturbed execution — fault runs are as
// reproducible (and as cacheable) as clean ones.
//
// Hook shape mirrors the PR-1 trace hooks: call sites are wrapped in
// ARMBAR_FAULT_CYCLES / ARMBAR_FAULT_HIT macros that expand to a
// null-checked call, so a run without a plan is bit-identical to the
// pre-fault tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace armbar::sim::fault {

/// Declarative fault-injection parameters. Probabilities are per-mille
/// (0..1000) so plans digest into cache keys as plain integers with no
/// floating-point portability hazards. A default-constructed plan injects
/// nothing; enabled() is the single gate every consumer tests.
struct FaultPlan {
  std::uint64_t seed = 0;

  std::uint32_t barrier_spike_pm = 0;      ///< P(barrier txn spiked) ‰
  std::uint32_t barrier_spike_cycles = 0;  ///< added round-trip cycles

  std::uint32_t coh_delay_pm = 0;      ///< P(coherence transfer delayed) ‰
  std::uint32_t coh_delay_cycles = 0;  ///< added transfer cycles

  std::uint32_t coh_duplicate_pm = 0;  ///< P(invalidation delivered twice) ‰

  std::uint32_t evict_pm = 0;  ///< P(clean shared copy evicted on access) ‰

  std::uint32_t sb_stall_pm = 0;      ///< P(drain start postponed) ‰
  std::uint32_t sb_stall_cycles = 0;  ///< postponement length

  bool enabled() const {
    return barrier_spike_pm != 0 || coh_delay_pm != 0 || coh_duplicate_pm != 0 ||
           evict_pm != 0 || sb_stall_pm != 0;
  }

  /// Moderate all-faults preset used by `--fault-seed N`: every fault class
  /// active at rates that perturb schedules heavily without livelocking
  /// forward progress.
  static FaultPlan chaos(std::uint64_t seed);

  /// One-line human rendering for banners and diagnostics.
  std::string describe() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Per-run fault state: one deterministic RNG stream per core, advanced
/// only when its core consults a hook, so adding cores or reordering
/// unrelated work does not reshuffle another core's fault schedule.
class FaultEngine {
 public:
  FaultEngine(const FaultPlan& plan, std::uint32_t cores);

  const FaultPlan& plan() const { return plan_; }

  // ---- hooks (called from Core / MemorySystem) ----

  /// Extra cycles on one ACE barrier transaction (0 = not spiked).
  Cycle barrier_spike(CoreId core);
  /// Extra cycles on one coherence transfer (0 = not delayed).
  Cycle coh_delay(CoreId core);
  /// Cycles to postpone a drain that was about to start (0 = start now).
  Cycle sb_stall(CoreId core);
  /// True: force-evict this core's clean shared copy (hit becomes miss).
  bool evict(CoreId core);
  /// True: deliver this store's invalidations a second time.
  bool duplicate_invalidate(CoreId core);

  /// Total faults injected so far (all classes; for tests/diagnostics).
  std::uint64_t injected() const { return injected_; }

 private:
  bool roll(CoreId core, std::uint32_t pm);

  const FaultPlan plan_;
  std::vector<Rng> rngs_;
  std::uint64_t injected_ = 0;
};

// ---- process-global plan (the runner's chaos mode) ----
//
// The 18 registered experiments build their Machines deep inside simprog
// helpers; threading a plan through every signature would touch dozens of
// call sites for no modelling gain. Instead Machine::run() falls back to
// the global plan when RunConfig.fault is null, and the engine installs /
// clears it around a sweep. Set-before / clear-after only — never written
// while simulations run — so worker threads may read it freely.

/// Install `plan` as the process-global fallback (copied).
void set_global_fault_plan(const FaultPlan& plan);
/// Remove the global fallback.
void clear_global_fault_plan();
/// The installed plan, or nullptr.
const FaultPlan* global_fault_plan();

/// Hook-site macros, mirroring ARMBAR_TRACE: `engine` is a FaultEngine*
/// that is null when no faults are active.
#define ARMBAR_FAULT_CYCLES(engine, call) \
  ((engine) != nullptr ? (engine)->call : ::armbar::Cycle{0})
#define ARMBAR_FAULT_HIT(engine, call) ((engine) != nullptr && (engine)->call)

}  // namespace armbar::sim::fault

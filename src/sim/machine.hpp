// The simulated machine: cores + memory system + clock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/core.hpp"
#include "sim/fault/fault.hpp"
#include "sim/mem.hpp"
#include "sim/platform.hpp"
#include "sim/program.hpp"
#include "sim/sched.hpp"

namespace armbar::sim {

/// Outcome of a Machine::run().
struct RunResult {
  bool completed = false;   ///< all cores halted before the cycle limit
  Cycle cycles = 0;         ///< cycle at which the last core halted
  MemStats mem;
  std::vector<CoreStats> cores;

  /// Convert a per-core event count into the paper's throughput unit
  /// (events per second at the platform frequency), given the events and
  /// the cycles they took. Scales the count by the clock before dividing:
  /// events/cycles first would round a sub-ulp quotient and lose the low
  /// digits once multiplied back up by ~1e9.
  static double throughput_per_sec(std::uint64_t events, Cycle cycles_taken,
                                   double freq_ghz) {
    if (cycles_taken == 0) return 0.0;
    return static_cast<double>(events) * (freq_ghz * 1e9) /
           static_cast<double>(cycles_taken);
  }
};

/// Declarative run parameters for Machine::run(const RunConfig&); replaces
/// the grow-a-positional-argument pattern (max_cycles was already one).
struct RunConfig {
  Cycle max_cycles = 500'000'000;
  /// When non-null, attached via Machine::set_tracer() — the single attach
  /// point — before the run starts. Recording only; timing is unaffected.
  trace::Tracer* tracer = nullptr;
  /// When non-null, the run records its metrics here (added to what the
  /// registry already holds): the five latency histograms of
  /// trace::metric, fed straight from the core and coherence hook sites,
  /// and the instruction, barrier, squash and stall_cycles.<cause>
  /// counters, folded in from CoreStats when the run returns. Needs no
  /// tracer, and timing is unaffected. A run that throws records nothing.
  trace::MetricsRegistry* metrics = nullptr;

  /// Fault-injection plan for this run. When null, Machine::run() falls
  /// back to the process-global plan (fault::set_global_fault_plan) — the
  /// runner's chaos mode. A null/disabled plan costs one pointer check per
  /// hook site.
  const fault::FaultPlan* fault = nullptr;

  /// Invariant-check cadence in cycles: every `verify_every` cycles a
  /// MachineVerifier sweeps the whole machine and a violation throws
  /// InvariantViolation (with a SimDiagnostic). 0 falls back to the global
  /// cadence (set_global_verify_every), which defaults to off.
  Cycle verify_every = 0;

  /// Forward-progress watchdog: if no core retires an instruction, drains
  /// a store or squashes for this many cycles while the machine is still
  /// schedulable, the run throws SimHang instead of burning silently to
  /// max_cycles. 0 disables.
  Cycle watchdog_cycles = 1'000'000;
};

/// A whole simulated machine. Construct, load programs onto cores, poke
/// initial memory, run. Deterministic: same inputs -> same cycle counts.
class Machine {
 public:
  explicit Machine(PlatformSpec spec, std::size_t mem_bytes = 16u << 20);

  const PlatformSpec& spec() const { return spec_; }
  MemorySystem& mem() { return *mem_; }
  const MemorySystem& mem() const { return *mem_; }

  std::uint32_t num_cores() const { return static_cast<std::uint32_t>(cores_.size()); }
  Core& core(CoreId c) { return *cores_[c]; }
  const Core& core(CoreId c) const { return *cores_[c]; }

  /// Bind `prog` to core `c` (cores without a program never run).
  /// Predecodes into an immutable DecodedProgram the machine co-owns and
  /// returns the handle, so callers can rebind the same predecoded form
  /// elsewhere (or drop it — the core keeps its own reference).
  ProgramHandle load_program(CoreId c, Program prog);

  /// Bind an already-predecoded program. One decode can serve any number of
  /// cores and machines; the handle is immutable and lifetime-safe.
  void load_program(CoreId c, ProgramHandle prog);

  /// Switch the whole machine to TSO (total-store-order) memory ordering.
  /// Used by the litmus harness to contrast WMM and TSO (paper Table 1).
  void set_tso(bool tso);

  /// THE tracer attach point: fans one tracer out to every core and the
  /// memory system (their setters are private — this is the only way in).
  /// Also installs the stall-cause display names so exports read
  /// "barrier" instead of a code. Detach with nullptr.
  void set_tracer(trace::Tracer* t);

  /// Run until every program-bearing core halts or cfg.max_cycles elapses.
  /// A machine runs once; construct a fresh one per experiment point.
  RunResult run(const RunConfig& cfg);

  /// Test seam for the invariant checker: point core `c`'s scheduler slot at
  /// `at` without touching the core, as a wake the invalidate hook failed
  /// to mirror would leave it, so tests can prove the MachineVerifier
  /// catches it. With `refile` false only the slot is overwritten and the
  /// core stays filed under its old one, as a write that bypassed the
  /// scheduler would leave it. Never called by the simulator.
  void debug_set_attention(CoreId c, Cycle at, bool refile = true) {
    if (refile)
      sched_.set(c, at);
    else
      sched_.debug_overwrite_slot(c, at);
  }

  /// Final-state extraction (differential fuzzing, ISSUE 4): read the listed
  /// (core, register) slots followed by the 8-byte words at the listed
  /// addresses, in order, after a run. Memory words go through peek(), so
  /// they reflect the coherent architectural value, not a stale copy.
  std::vector<std::uint64_t> extract_state(
      const std::vector<std::pair<CoreId, Reg>>& regs,
      const std::vector<Addr>& addrs) const;

 private:
  friend class MachineVerifier;

  PlatformSpec spec_;
  std::unique_ptr<MemorySystem> mem_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<bool> active_;
  AttentionQueue sched_;  ///< next-attention slots, wheel + lazy min-heap
  /// The cycle run() is sweeping, and the cores the invalidate hook pulled
  /// to it during the current step (bit c = core c).
  Cycle sweep_at_ = 0;
  std::uint64_t woken_ = 0;
  std::unique_ptr<fault::FaultEngine> fault_engine_;
  /// Allocated by run() only when it records metrics; every live core and
  /// the memory system hold a pointer to it.
  std::unique_ptr<RunHistograms> hist_;
  trace::Tracer* tracer_ = nullptr;  ///< last attached (diagnostic ring tail)
  bool ran_ = false;
};

}  // namespace armbar::sim

// Machine-wide invariant checking, structured failure diagnostics, and the
// forward-progress watchdog (ISSUE 3 layer 2).
//
// The simulator is deterministic, so when its state goes wrong (a simulator
// bug, or a memory stomp from harness code) the corruption silently skews
// every number downstream. Machine::run() can therefore periodically sweep
// the whole machine through a MachineVerifier — every coherence line, every
// store buffer, every speculation queue — and convert the first violated
// invariant into a typed exception carrying a SimDiagnostic bundle: the
// violated invariant, one-line dumps of every core, and the tail of the
// attached trace ring. The runner renders the bundle into the JSON report
// instead of the process dying on a bare abort.
//
// Invariants checked (all are properties the simulator maintains by
// construction; none can fail on a healthy build):
//   1. MESI single-writer: an owned line has no foreign sharers; sharer
//      masks and owner ids name real cores; a pending store names a real
//      writer, lands within the line's busy window, and keeps only sharers
//      that still exist.
//   2. Store-buffer order: per-core seq strictly increases in buffer order,
//      and no drain is in flight while an older same-word entry sits in the
//      buffer (per-address program order of drains).
//   3. Speculation order: pending-branch ids strictly increase and are all
//      younger than the committed-branch watermark.
//   4. Barrier accounting: every active store-buffer watch expects exactly
//      the drains that are still buffered below its epoch.
//   5. Pump gate: a core whose store buffer is clean (unchanged since its
//      last pump) and whose cached event horizon lies ahead of the sweep
//      cycle caches exactly the horizon a rescan of the buffer reports.
//   6. Scheduler: every program-bearing core's attention slot is its
//      next_attention(), and a core's wheel bit is set exactly when its
//      slot lies in the wheel's window, in the lane of that slot, with the
//      occupancy mask naming exactly the non-empty lanes (a stale bit would
//      step a core at a cycle its slot no longer names, a missing one would
//      never step it).
//
// The watchdog is separate from the verifier: it converts "no core retired
// an instruction, drained a store or squashed for N cycles" into a typed
// SimHang instead of letting the run burn silently to max_cycles.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/json.hpp"

namespace armbar::sim {

class Core;
class Machine;

/// Structured failure bundle: what went wrong, when, and enough machine
/// state to debug it from a CI log or a JSON report.
struct SimDiagnostic {
  std::string kind;     ///< "invariant_violation" | "hang"
  std::string summary;  ///< first violated invariant / stuck-state sentence
  Cycle cycle = 0;      ///< simulation cycle at detection
  std::vector<std::string> cores;          ///< one line per live core
  std::vector<std::string> recent_events;  ///< trace ring tail, oldest first

  /// Multi-line human rendering (what the runner prints).
  std::string str() const;
  /// JSON rendering (what lands in the bench report's quarantine entry).
  trace::Json to_json() const;
  /// Inverse of to_json() — used when replaying repro bundles. Returns false
  /// when `j` is not an object of the shape to_json() emits.
  static bool from_json(const trace::Json& j, SimDiagnostic* out);
};

/// Base of all typed simulator failures; what() is "<kind>: <summary>".
class SimError : public std::runtime_error {
 public:
  explicit SimError(SimDiagnostic d);
  const SimDiagnostic& diagnostic() const { return diag_; }

 private:
  SimDiagnostic diag_;
};

/// A machine invariant stopped holding mid-run.
class InvariantViolation : public SimError {
 public:
  using SimError::SimError;
};

/// The forward-progress watchdog fired: the machine is live (cores still
/// schedulable — not the deadlock ARMBAR_CHECK) but nothing retires.
class SimHang : public SimError {
 public:
  using SimError::SimError;
};

/// Read-only sweep over one Machine's internal state. Constructed on the
/// stack by Machine::run() at the configured cadence; also usable directly
/// from tests against a stopped machine.
class MachineVerifier {
 public:
  explicit MachineVerifier(const Machine& m) : m_(m) {}

  /// Check every invariant once every core due at cycle `now` has been
  /// stepped; returns "" when all hold, otherwise a one-line description of
  /// the first violation found.
  std::string check(Cycle now) const;

  /// Assemble a diagnostic bundle from the machine's current state.
  SimDiagnostic diagnose(std::string kind, std::string summary, Cycle now) const;

 private:
  std::string check_lines() const;
  std::string check_core(const Core& core, Cycle now) const;
  std::string check_sched() const;

  const Machine& m_;
};

// Process-global verify cadence fallback, mirroring the global fault plan:
// Machine::run() uses it when RunConfig.verify_every is 0. Set-before /
// clear-after a sweep only; 0 disables.
void set_global_verify_every(Cycle every);
Cycle global_verify_every();

}  // namespace armbar::sim

// Litmus-test harness for the simulator.
//
// A litmus test is plain data: one model::ConcurrentProgram (per-thread
// programs, initial memory, observed registers and memory words) plus, per
// thread, the pc at which the harness staggers that thread's start. The
// harness runs the program across a sweep of start skews — `n` NOPs inserted
// at each thread's skew point (sim::insert_nops) — and collects the
// histogram of observed outcomes. Tests then assert which outcomes are
// reachable under WMM and which are forbidden under TSO or with barriers
// inserted (paper Table 1 and §2). For every Table 1 shape but MP, the
// axiomatic model enumerates the very same program (litmus/shapes.hpp), so
// the simulator and its reference read one form.
//
// Model fidelity notes
// --------------------
// * Store-side reordering (non-FIFO store buffer, deferred visibility) is
//   fully modelled: MP and SB behave as on real ARM hardware.
// * Load values are sampled when the load is issued, so pure load-side
//   reorderings that require out-of-order load *satisfaction* (e.g. the LB
//   shape) are not observable: the model is slightly stronger than the
//   architecture on that axis. This does not affect the paper's
//   experiments, which all concern barriers ordering stores after RMRs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "sim/machine.hpp"

namespace armbar::litmus {

/// A complete litmus test.
struct Litmus {
  model::ConcurrentProgram prog;
  /// Per thread: the pc before which the harness inserts the thread's skew
  /// NOPs. Anything before it (e.g. MP's cache-line warm-up) runs first.
  std::vector<std::uint32_t> skew_at;
};

/// An observed outcome: the observed register values (prog.observe_regs
/// order) followed by the observed final memory words.
using Outcome = model::Outcome;

struct LitmusReport {
  std::map<Outcome, std::uint64_t> histogram;
  std::uint64_t runs = 0;

  bool saw(const Outcome& o) const { return histogram.contains(o); }
  std::uint64_t count(const Outcome& o) const {
    auto it = histogram.find(o);
    return it == histogram.end() ? 0 : it->second;
  }
  std::string str() const;
};

struct LitmusConfig {
  sim::PlatformSpec platform;
  std::vector<CoreId> binding;    ///< core for each thread
  std::uint32_t max_skew = 256;   ///< skews swept per thread: 0..max step `skew_step`
  std::uint32_t skew_step = 16;
  bool tso = false;
  Cycle max_cycles = 10'000'000;
  /// Fault-injection plan applied to every run of the sweep (disabled by
  /// default). Faults perturb timing only, so the set of *allowed* outcomes
  /// is unchanged — the fault suite asserts exactly that.
  sim::fault::FaultPlan fault{};
  /// Run the MachineVerifier every N cycles of every run (0 = off).
  Cycle verify_every = 0;
};

/// Run the litmus test over the full skew sweep; aborts on timeout.
LitmusReport run_litmus(const Litmus& test, const LitmusConfig& cfg);

// ---- the standard shapes used by the paper and the test suite ----

/// Message passing (paper Table 1): T0 stores data then flag; T1 polls
/// flag, sampling data on every poll. Outcome = {T1.flag, T1.data}; the
/// flag is 1 once the poll exits. `barrier` is inserted between the two
/// stores (kNop means none); (1,0) is the weak outcome.
Litmus make_mp(sim::Op producer_barrier);

/// Store buffering: T0 stores X, reads Y; T1 stores Y, reads X.
/// Outcome = {T0.ry, T1.rx}; (0,0) is the relaxed outcome. `barrier` is
/// inserted between each thread's store and load.
Litmus make_sb(sim::Op barrier);

/// SB with release stores and acquire loads: [L]; po; [A] is RCsc-ordered,
/// so (0,0) is forbidden although no fence separates the accesses.
Litmus make_sb_rel_acq();

/// CoRR: T0 stores X=1 then X=2; T1 reads X twice. Outcome = {r1, r2};
/// (2,1), a same-location read regressing, is forbidden.
Litmus make_corr();

/// Coherence probe: two stores by the same thread to one location must be
/// seen in order by a spinning observer. Outcome = {observer saw regression}.
Litmus make_coherence();

/// Single-copy atomicity: a 64-bit store is never observed torn. The
/// producer alternates between two bit patterns; the observer records
/// whether it ever saw a mix. Outcome = {saw_torn}.
Litmus make_atomicity();

/// Load buffering: T0 reads X then stores Y; T1 reads Y then stores X.
/// Outcome = {T0.rx, T1.ry}; (1,1) is the relaxed outcome. NOT observable
/// in this model (load values are sampled at issue — see the fidelity note
/// above), matching most real implementations even though the architecture
/// allows it.
Litmus make_lb(sim::Op barrier);

/// S shape: T0 stores X=2 then (barrier) stores Y=1; T1 reads Y then
/// stores X=1. Outcome = {T1.ry, final X}. The relaxed outcome is
/// ry==1 && X==2 (T1's store to X lost "before" T0's earlier store).
Litmus make_s(sim::Op barrier);

/// 2+2W: both threads store to both locations in opposite orders.
/// Outcome = {final X, final Y}; (1,3) — each location keeping the
/// *first* store in the respective program order — is the relaxed shape.
Litmus make_2p2w(sim::Op barrier);

/// WRC (write-to-read causality): T0 stores X; T1 reads X then stores Y;
/// T2 reads Y then reads X. Outcome = {T1.rx, T2.ry, T2.rx}. The
/// non-causal outcome is (1,1,0). Our machine's stale-share window is the
/// only non-MCA behaviour; the harness reports whether it manifests.
Litmus make_wrc(sim::Op t1_barrier, sim::Op t2_barrier);

}  // namespace armbar::litmus

// One simulated ARMv8-lite core.
//
// Pipeline model (paper §2.3 "one typical implementation"):
//  * in-order issue, one instruction per cycle, ALU latency 1;
//  * loads are non-blocking: they enter a load queue and deliver into their
//    destination register at a future completion cycle; consumers stall,
//    independent instructions flow past (this is what makes bogus
//    data/address dependencies nearly free — Observation 6);
//  * stores retire into a bounded, NON-FIFO store buffer and drain in the
//    background through the coherence fabric (up to `sb_mshrs` concurrent
//    drains). A store's drain cannot start before its value's producer has
//    finished (data dependency) or before the branches it speculated past
//    have resolved (control dependency);
//  * conditional branches with unresolved conditions are predicted
//    (backward taken / forward not-taken); wrong-path work is squashed with
//    a register-file snapshot and a flush penalty;
//  * barriers follow the ACE model: when a barrier reaches issue it blocks
//    the instruction classes its type demands, and — if it needs the bus —
//    cannot complete before prior snoop activity finished plus a barrier-
//    transaction round trip (memory barrier txn to the bi-section boundary,
//    escalated to the domain boundary when cross-node snooping was involved;
//    synchronization barrier txn always to the domain boundary).
//
// Barrier semantics implemented (calibrated to the paper's observations):
//   DMB full : blocks all issue until prior loads complete and prior stores
//              drain; pays a memory-barrier txn only if stores were pending
//              (empty-queue barriers terminate internally — Fig 2).
//              Blocking *all* issue models the issue-queue/ROB saturation
//              the paper infers in Observation 2 / Fig 4.
//   DMB st   : does not block the pipe; arms a "store gate" — later stores
//              cannot issue until prior stores drained + memory txn.
//   DMB ld   : blocks all issue until prior loads complete; no bus txn.
//   DSB *    : blocks all issue until loads+stores done, then always pays a
//              synchronization-barrier txn to the domain boundary (Obs 5).
//   ISB      : waits for pending branches to resolve, then flushes the pipe.
//   LDAR     : a load that also gates later *memory* ops until it completes.
//   STLR     : a store whose drain waits for all older stores to drain and
//              all prior loads to complete, then pays an extra global-
//              visibility acknowledgement (stlr_extra). Later stores may
//              still drain around it (one-way barrier), but successive
//              STLRs chain, which is what makes its cost high and
//              occupancy-dependent (Observation 3).
//
// Stepping (DESIGN.md §14): the machine steps a core only where its step
// can change something another core could see. event_horizon() is the
// first cycle at which anything outside the core's private state can
// change what it does: the next store-buffer event, the front branch
// resolving, or the cycle cap. A store behind an unresolved DMB st gate
// sleeps to that horizon, and after a step's first issue the core-local
// instructions that follow (NOP, ALU, jump, conditional branch) issue ahead
// of the sweep up to it. With a tracer attached a core issues one
// instruction per step and retries a gated store every cycle: the
// per-cycle reference the untraced paths must match exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "sim/isa.hpp"
#include "sim/mem.hpp"
#include "sim/program.hpp"
#include "trace/trace.hpp"

namespace armbar::sim {

namespace fault {
class FaultEngine;
}  // namespace fault

/// Why a core did not issue this cycle (for the stall breakdown).
enum class StallCause : std::uint8_t {
  kNone = 0,
  kOperand,      ///< waiting for a source register
  kBarrier,      ///< blocking barrier in progress
  kStoreGate,    ///< DMB st gate blocks a store
  kMemGate,      ///< LDAR gate blocks a memory op
  kSbFull,       ///< store buffer full
  kLqFull,       ///< load queue full
  kSpec,         ///< speculation depth exhausted / must be non-speculative
  kSquash,       ///< refilling after a branch mispredict
  kParked,       ///< in WFE
  kCount,
};

const char* to_string(StallCause c);
/// All cause names in code order — installed on tracers so Chrome-trace
/// lanes carry names instead of codes. The stall_cycles.<cause> metric keys
/// use the same names.
std::vector<std::string> stall_cause_names();

struct CoreStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t barriers = 0;
  std::uint64_t squashes = 0;
  std::uint64_t wfe_parks = 0;
  std::uint64_t stxr_failures = 0;
  std::uint64_t sb_retired = 0;  ///< store-buffer drains retired (watchdog)
  std::uint64_t stall_cycles[static_cast<int>(StallCause::kCount)] = {};
  Cycle halted_at = 0;

  std::uint64_t total_stalls() const {
    std::uint64_t s = 0;
    for (auto v : stall_cycles) s += v;
    return s;
  }
};

class Core {
 public:
  Core(CoreId id, const PlatformSpec& spec, MemorySystem& mem);

  /// Bind a predecoded program. The core shares ownership, so the handle
  /// may be dropped (or reused on other cores) immediately.
  void load_program(ProgramHandle prog);

  void set_reg(Reg r, std::uint64_t v);
  std::uint64_t reg(Reg r) const { return r == XZR ? 0 : regs_[r]; }

  void set_tso(bool tso) { tso_ = tso; }

  CoreId id() const { return id_; }
  bool halted() const { return halted_; }

  const CoreStats& stats() const { return stats_; }
  std::uint32_t pc() const { return pc_; }

  /// Test seam for the invariant checker: overwrite the cached store-buffer
  /// event horizon, as a buffer change that missed its dirty mark would
  /// leave it, so tests can prove the MachineVerifier catches it. Never
  /// called by the simulator.
  void debug_set_sb_horizon(Cycle at) { sb_horizon_ = at; }

 private:
  // Tracer attachment goes through Machine::set_tracer() — the single
  // attach point — so a core can never trace with stale stall-cause names
  // or diverge from the rest of the machine. Fault engines and metric
  // histograms follow the same pattern (Machine::run is the only
  // installer), and MachineVerifier reads the private order state to check
  // invariants.
  friend class Machine;
  friend class MachineVerifier;
  void set_tracer(trace::Tracer* t) { tracer_ = t; }
  void set_fault_engine(fault::FaultEngine* f) { fault_ = f; }
  void set_histograms(RunHistograms* h) { hist_ = h; }
  /// First cycle the run loop will not reach (max_cycles + 1): a
  /// core-local run never issues past it.
  void set_run_end(Cycle end) { run_end_ = end; }

  // ---- the stepping interface (ISSUE 7) ----
  // Machine's scheduler is the only driver of simulated time. Everything it
  // calls per cycle lives here, and nothing else about a core's execution
  // is reachable from outside: the contract is exactly step / attention /
  // idle / invalidate.
  /// Advance the core at cycle `now`. Pumps the store buffer when it can
  /// act, issues one instruction, then every core-local instruction that
  /// issues before the event horizon (see run_ahead()). Updates
  /// next_attention().
  void step(Cycle now);
  /// Earliest cycle at which this core needs to be stepped again
  /// (kNeverCycle exactly when idle()).
  Cycle next_attention() const { return next_attention_; }
  /// Halted with a drained store buffer: will never need attention again.
  bool idle() const { return halted_ && sb_.empty(); }
  /// Coherence callback: this core's copy of `line` was invalidated,
  /// effective at cycle `at`. May pull next_attention() earlier (WFE wake).
  void on_invalidate(Addr line, Cycle at);

  // ---- store buffer ----
  struct SbEntry {
    std::uint64_t seq = 0;
    Addr addr = 0;
    std::uint64_t value = 0;
    Cycle enqueued_at = 0;     ///< issue cycle (trace: buffer residency)
    Cycle value_ready = 0;     ///< data-dependency: value usable from here
    Cycle drain_at = 0;        ///< earliest drain request (sb_drain_delay)
    std::uint64_t gate_branch = 0;  ///< control-dependency: youngest branch id
    bool release = false;      ///< STLR
    Cycle release_loads = 0;   ///< STLR: prior loads must be done by drain
    bool draining = false;
    Cycle drain_done = 0;
    bool remote_snoop = false;
  };

  // A barrier's view of the store buffer: "all entries with seq < epoch
  // must drain"; tracks the last completion among them and whether any
  // snoop crossed a node boundary.
  struct SbWatch {
    std::uint64_t epoch = 0;
    std::uint32_t pending = 0;
    Cycle max_done = 0;
    bool remote = false;
    bool active = false;
  };

  struct PendingBranch {
    std::uint64_t idx;          ///< monotonically increasing branch id
    Cycle resolve_at;
    std::uint32_t actual_pc;    ///< correct next pc (evaluated at issue)
    std::uint32_t predicted_pc;
    // register-file snapshot for squash
    std::uint64_t regs[kNumRegs];
    Cycle ready[kNumRegs];
    std::int64_t flags;
    Cycle flags_ready;
    Cycle loads_done;
    std::uint64_t sb_seq;       ///< entries with seq >= this are speculative
  };

  struct BlockingBarrier {
    Op kind;
    int watch = -1;             ///< index into watches_, or -1
    Cycle loads_done = 0;       ///< prior-load completion snapshot
    Cycle issue = 0;
    bool had_stores = false;
    Cycle block_from = 0;       ///< first cycle the pipe is blocked
    std::uint32_t pc = 0;       ///< barrier's own pc (trace span anchor)
  };

  // ---- helpers ----
  void pump_store_buffer(Cycle now);
  void resolve_branches(Cycle now);
  bool check_blocking_barrier(Cycle now);
  void issue(Cycle now);
  void run_ahead();
  /// First cycle at which anything outside the core's private state can
  /// change what it does: the next store-buffer event, the front branch
  /// resolving, or the cycle cap. Valid only while the buffer is clean.
  Cycle event_horizon() const {
    Cycle h = sb_horizon_ < run_end_ ? sb_horizon_ : run_end_;
    if (!branches_.empty() && branches_.front().resolve_at < h)
      h = branches_.front().resolve_at;
    return h;
  }
  /// End of a wait on an unresolved DMB st gate (see issue()).
  Cycle store_gate_wait_end(Cycle now) const;
  void stall(Cycle now, Cycle until, StallCause cause);
  std::uint64_t read(Reg r) const { return r == XZR ? 0 : regs_[r]; }
  void write(Reg r, std::uint64_t v, Cycle ready_at);
  Cycle reg_ready(Reg r) const { return r == XZR ? 0 : ready_[r]; }
  int alloc_watch(Cycle now);
  void retire_drain(const SbEntry& e);
  Cycle do_load(const MicroOp& u, Cycle now, Addr addr);
  bool sb_has_older_same_word(std::uint64_t seq, Addr word) const;
  Cycle earliest_sb_event(Cycle now) const;
  void squash(const PendingBranch& br, Cycle now);
  std::uint64_t youngest_branch_id() const {
    return branches_.empty() ? 0 : branches_.back().idx;
  }

  // Members are grouped hot-first: the scalars below `pc_` are the state
  // every step/issue touches, packed together so one or two cache lines
  // cover a stepping core's working set (the SoA half of the ISSUE 7 fast
  // path; the machine-level half is AttentionQueue's dense cycle array).

  // ---- identity / wiring ----
  const CoreId id_;
  const PlatformSpec& spec_;
  const Latencies& lat_;
  MemorySystem& mem_;
  ProgramHandle prog_;                  ///< shared ownership of the program
  const MicroOp* uops_ = nullptr;       ///< = prog_->uops(), hot-path cache
  std::uint32_t prog_size_ = 0;

  // ---- per-cycle hot scalars ----
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  bool parked_ = false;
  bool store_gate_armed_ = false;
  bool tso_ = false;
  StallCause stall_cause_ = StallCause::kNone;
  Cycle next_attention_ = 0;
  Cycle stall_until_ = 0;
  Cycle last_step_ = 0;
  std::int64_t flags_ = 0;      ///< last CMP result (signed rn - rm)
  Cycle flags_ready_ = 0;
  Cycle loads_done_at_ = 0;     ///< max completion over all issued loads
  Cycle mem_gate_ = 0;          ///< LDAR: memory ops blocked before this
  /// LDAPR (RCpc acquire): subsequent LOADS blocked before this; stores may
  /// enter the buffer but their drain is floored at the acquire completion.
  Cycle load_gate_ = 0;
  Cycle drain_floor_ = 0;
  /// earliest_sb_event() as computed by the last pump. Before that cycle a
  /// pump can only act if the buffer changed outside it, which sets
  /// sb_dirty_: a store enqueued, a branch committed (ungating stores) or a
  /// squash popped entries.
  Cycle sb_horizon_ = kNeverCycle;
  bool sb_dirty_ = false;
  Cycle run_end_ = kNeverCycle;

  // ---- architectural registers ----
  std::uint64_t regs_[kNumRegs] = {};
  Cycle ready_[kNumRegs] = {};

  // ---- memory-order state ----
  std::vector<SbEntry> sb_;
  std::uint64_t sb_next_seq_ = 1;
  std::vector<SbWatch> watches_;
  std::vector<Cycle> load_queue_;   ///< completion cycles of in-flight loads
  std::optional<BlockingBarrier> barrier_;
  int store_gate_watch_ = -1;       ///< DMB st gate (index into watches_)
  Cycle store_gate_ready_ = 0;      ///< resolved gate cycle (0 = none/done)

  // ---- speculation ----
  std::vector<PendingBranch> branches_;
  std::uint64_t next_branch_id_ = 1;
  std::uint64_t committed_branch_ = 0;  ///< all ids <= this are resolved-correct

  // ---- exclusives / events ----
  Addr monitor_line_ = 0;
  bool monitor_valid_ = false;
  bool event_pending_ = false;
  Cycle park_wake_ = 0;

  Cycle tso_last_load_done_ = 0;

  trace::Tracer* tracer_ = nullptr;
  fault::FaultEngine* fault_ = nullptr;
  RunHistograms* hist_ = nullptr;  ///< non-null only while recording metrics
  CoreStats stats_;
  std::uint64_t pumps_ = 0;  ///< pumps step() ran (profiler: sim.pumps)
};

}  // namespace armbar::sim

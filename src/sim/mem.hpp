// Simulated memory system: word storage, per-line MESI-style coherence,
// NUMA home placement, and the latency model for coherence requests.
//
// Design notes
// ------------
// * Caches are infinite (no evictions): line presence is tracked purely by
//   the coherence state, which is all the paper's workloads exercise. The
//   interesting events are ownership transfers (RMRs), not capacity misses.
// * Requests are granted synchronously: each line carries `busy_until`,
//   serializing transfers on the same line. This keeps the simulator
//   single-pass and deterministic while modelling transfer serialization
//   (e.g. the thundering herd after a lock release).
// * Store VISIBILITY is deferred to drain completion through a per-line
//   pending-write slot: until the completion cycle, cores still holding a
//   stale S copy keep reading the old value, while any core that must
//   transfer the line serializes after completion and sees the new value.
//   This is what lets weakly-ordered reorderings (paper Table 1) actually
//   manifest: two drains issued together but completing at different times
//   become visible out of program order.
// * Values live at 8-byte-word granularity, which gives the simulator the
//   64-bit single-copy atomicity that Pilot (paper §4.3) relies on.
// * Backing is lazy and page-granular. The address span is a directory of
//   4 KiB pages, each holding its 512 words next to its 64 LineStates. A
//   page is allocated (zero words, default lines) on the first mutating
//   access: load, store, exchange, poke, debug_set_line_state. Const
//   queries on an untouched page (peek, load_hits, owns, any_remote_holder,
//   line_state) read one shared all-default page and allocate nothing, so an
//   untouched page behaves exactly like a touched page nobody holds.
//   Construction, destruction and verifier sweeps therefore cost the pages a
//   program touches, not the span: a 64 MiB machine pays for an 8-byte
//   directory slot per page instead of zero-filling 64 MiB of words and a
//   LineState per line, while the paper's kernels touch a few dozen lines.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/platform.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace armbar::sim {

namespace fault {
class FaultEngine;
}  // namespace fault

inline constexpr std::uint32_t kMaxCores = 64;
inline constexpr std::int16_t kNoOwner = -1;

/// Coherence metadata for one cache line.
struct LineState {
  std::int16_t owner = kNoOwner;  ///< core holding the line in M/E, or kNoOwner
  std::uint64_t sharers = 0;      ///< bitmask of cores holding the line in S
  Cycle busy_until = 0;           ///< transfers on this line serialize after this

  // In-flight store: becomes architecturally visible at `pending_at`.
  bool pending = false;
  Addr pending_word = 0;
  std::uint64_t pending_value = 0;
  Cycle pending_at = 0;
  std::int16_t pending_owner = kNoOwner;   ///< owner once applied
  std::uint64_t pending_keep_sharers = 0;  ///< sharers surviving the apply
};

/// Aggregate coherence traffic counters.
struct MemStats {
  std::uint64_t gets_local = 0;    ///< read transfers within one node
  std::uint64_t gets_remote = 0;   ///< read transfers across nodes
  std::uint64_t getm_local = 0;    ///< ownership transfers within one node
  std::uint64_t getm_remote = 0;   ///< ownership transfers across nodes
  std::uint64_t mem_fills = 0;     ///< fills straight from memory
  std::uint64_t upgrades = 0;      ///< S->M upgrades
  std::uint64_t hits = 0;          ///< requests satisfied without a transfer
};

/// The latency histograms one core feeds while its run records metrics
/// (RunConfig::metrics). Machine::run allocates one per program-bearing core
/// and folds them into the registry under the trace::metric names once the
/// run ends; the Core feeds the barrier and store-buffer ones, the
/// MemorySystem the coherence ones.
struct CoreHistograms {
  trace::Histogram barrier_complete;  ///< blocking barrier / ISB block span
  trace::Histogram barrier_txn;       ///< ACE barrier transaction round trip
  trace::Histogram sb_residency;      ///< store-buffer enqueue to retire
  trace::Histogram coh_transfer;      ///< every coherence transfer
  trace::Histogram remote_inv;        ///< cross-node ownership transfers
};

/// The shared memory + coherence fabric of one simulated machine.
class MemorySystem {
 public:
  /// Invalidation/downgrade notification: (victim core, line, effective cycle).
  /// Used by the machine to clear exclusive monitors and wake WFE'd cores.
  using InvalidateHook = std::function<void(CoreId, Addr, Cycle)>;

  MemorySystem(const PlatformSpec& spec, std::size_t mem_bytes);

  void set_invalidate_hook(InvalidateHook hook) { inv_hook_ = std::move(hook); }

  /// Assign a home NUMA node to [base, base+bytes). Defaults to node 0.
  void set_home(Addr base, std::size_t bytes, NodeId node);
  NodeId home_of(Addr a) const;

  /// The simulated address span, backed or not.
  std::size_t size_bytes() const { return span_bytes_; }

  /// Pages backed so far: 0 until the first mutating access.
  std::size_t resident_pages() const { return resident_pages_; }

  // ---- functional access (setup/teardown, no timing) ----
  /// End-of-time view: includes any pending (in-flight) store's value.
  std::uint64_t peek(Addr a) const;
  void poke(Addr a, std::uint64_t v);

  // ---- timed coherence operations ----

  /// True if a load by `core` to `a` hits (core is owner or sharer).
  bool load_hits(CoreId core, Addr a) const;

  /// True if `core` may write `a` without a transfer (owner in M/E).
  bool owns(CoreId core, Addr a) const;

  /// Read access. Returns the completion cycle and delivers the value.
  /// Issues a GetS transfer if the line is not present. `exclusive` loads
  /// (LDXR) never take stale hits: they serialize after any in-flight
  /// store on the line, otherwise a stale read could slip past the
  /// exclusive monitor and break read-modify-write atomicity.
  Cycle load(CoreId core, Addr a, Cycle now, std::uint64_t& value_out,
             bool exclusive = false);

  /// Atomic exchange (SWP): writes `v`, delivers the pre-store value, and
  /// returns the completion cycle. Serialized like a store; never reads
  /// stale data.
  Cycle exchange(CoreId core, Addr a, std::uint64_t v, Cycle now,
                 std::uint64_t& old_out, bool& remote_snoop_out);

  /// Write access (a store-buffer drain). Returns the completion cycle.
  /// Issues a GetM/upgrade if the core does not own the line; invalidates
  /// sharers through the hook. `remote_snoop_out` reports whether the
  /// transfer had to cross a node boundary (used for ACE barrier-transaction
  /// latency selection).
  Cycle store(CoreId core, Addr a, std::uint64_t v, Cycle now, bool& remote_snoop_out);

  /// True if any core other than `core` currently holds the line.
  bool any_remote_holder(CoreId core, Addr a) const;

  const MemStats& stats() const { return stats_; }

  /// Coherence state of `a`'s line. An untouched line reads as the shared
  /// default state, so read the reference before the next mutating access.
  const LineState& line_state(Addr a) const {
    return page(a).lines[line_slot(a)];
  }

  /// Test seam for the invariant checker: overwrite a line's coherence
  /// metadata wholesale. Exists so tests can construct states the simulator
  /// itself can never reach (e.g. an owner plus a foreign sharer) and prove
  /// the MachineVerifier catches them. Never called by the simulator.
  void debug_set_line_state(Addr a, const LineState& ls) {
    page_mut(a).lines[line_slot(a)] = ls;
  }

 private:
  // Tracer attachment goes through Machine::set_tracer() (single attach
  // point); see the note on Core::set_tracer. Fault engines and metric
  // histograms follow the same pattern, and MachineVerifier scans the
  // resident pages.
  friend class Machine;
  friend class MachineVerifier;
  void set_tracer(trace::Tracer* t) { tracer_ = t; }
  void set_fault_engine(fault::FaultEngine* f) { fault_ = f; }
  /// Indexed by core id; null for cores without a program.
  void set_histograms(std::vector<CoreHistograms*> by_core) {
    hist_ = std::move(by_core);
  }
  void record_transfer(CoreId core, trace::CohKind kind, Cycle cycles);

  static constexpr std::size_t kPageBytes = 4096;
  /// One page of backing store: its words and its lines' coherence state.
  struct Page {
    std::uint64_t words[kPageBytes / kWordBytes];
    LineState lines[kPageBytes / kCacheLineBytes];
  };
  /// What every untouched page reads as: zero words, default lines.
  static const Page kUntouchedPage;

  const Page& page(Addr a) const;  ///< kUntouchedPage until first mutated
  Page& page_mut(Addr a);          ///< allocates the page on first touch
  static std::size_t line_slot(Addr a) {
    return a % kPageBytes / kCacheLineBytes;
  }
  static std::size_t word_slot(Addr a);
  void apply_pending(Page& pg, LineState& ls);
  void notify_holders(const LineState& ls, Addr line, CoreId except, Cycle at);

  const PlatformSpec spec_;
  const std::size_t span_bytes_;
  std::vector<std::unique_ptr<Page>> pages_;  ///< nullptr until first mutated
  std::size_t resident_pages_ = 0;
  std::vector<NodeId> home_;  ///< per home-granule node id
  InvalidateHook inv_hook_;
  trace::Tracer* tracer_ = nullptr;
  fault::FaultEngine* fault_ = nullptr;
  std::vector<CoreHistograms*> hist_;  ///< empty unless recording metrics
  MemStats stats_;

  static constexpr std::size_t kHomeGranule = 4096;  ///< home map granularity
};

}  // namespace armbar::sim

// Lock experiments on the simulator (paper §5, Figs 7-8).
//
// Four lock families, all expressed in micro-ISA:
//  * ticket lock — LDXR/STXR fetch-add + WFE spin on now-serving, with the
//    unlock barrier configurable (Fig 7a);
//  * FFWD-style dedicated server (Algorithm 5) with the line-4 and line-7
//    barriers configurable and a Pilot response mode (Algorithm 6);
//  * CNA queue lock with configurable acquire/release handoff edges;
//  * CC-Synch migratory combiner (the paper's "DSynch" family), with the
//    response barrier configurable and a Pilot response mode.
//
// Critical sections read-modify-write `cs_lines` shared cache lines and
// walk `cs_ro_lines` read-only lines (models list traversal), then update
// a counter; runs are validated by checking the final counter value.
#pragma once

#include <cstdint>

#include "sim/machine.hpp"
#include "simprog/abstract_model.hpp"

namespace armbar::simprog {

enum class LockFamily : std::uint8_t { kTicket, kCna, kFfwd };
enum class Strength : std::uint8_t { kStrong, kWeakened };
enum class PlantedBug : std::uint8_t {
  kNone,
  kDropAcquire,    ///< the acquire edge after the grant/flag read is removed
  kDropRelease,    ///< the release edge before the grant/flag store is removed
  kDowngradeDmb,   ///< the release dmb is downgraded to an insufficient kind
};

/// How one lock handoff is ordered. An acquire edge is emit_load then
/// emit_barrier of its choice, a release edge emit_barrier then emit_store.
struct HandoffEdges {
  OrderChoice acquire = OrderChoice::kNone;  ///< grant read; FFWD: line 4
  OrderChoice release = OrderChoice::kNone;  ///< grant store; FFWD: line 7
  OrderChoice reply = OrderChoice::kNone;    ///< FFWD client's response read
  /// Standalone dmb/dsb on the edges: the static cost of one handoff.
  std::uint32_t dmbs() const {
    return is_plain_barrier(acquire) + is_plain_barrier(release) +
           is_plain_barrier(reply);
  }
};

/// The one (family, strength) -> edges table, read by these programs and
/// by the src/lockver templates, so the lock lockver verifies is the lock
/// the simulator runs. kStrong puts a standalone barrier on every edge:
/// `dmb ld` after a waiter's read, `dmb ish` before a grant store and on
/// FFWD's line 4. kWeakened is the paper's Table 3: LDAR reads, STLR
/// grants, and `dmb st` on FFWD's store->store response. A planted bug
/// edits one entry: kDropAcquire / kDropRelease clear an edge, and
/// kDowngradeDmb makes the release a barrier that cannot order it (`dmb
/// st` lets the critical section's loads pass the grant; FFWD's response
/// gets a wrong-direction `dmb ld`).
HandoffEdges handoff_edges(LockFamily f, Strength s,
                           PlantedBug b = PlantedBug::kNone);

struct LockWorkload {
  std::uint32_t threads = 8;       ///< client/competitor cores
  std::uint32_t iters = 200;       ///< acquisitions per thread
  std::uint32_t cs_lines = 1;      ///< shared lines RMW'd in the CS
  std::uint32_t cs_ro_lines = 0;   ///< shared lines only read in the CS
  std::uint32_t interval_nops = 0; ///< nops between two acquisitions
};

struct LockResult {
  double acq_per_sec = 0;   ///< critical sections per second (whole machine)
  bool correct = false;     ///< counter == threads * iters
  Cycle cycles = 0;
  /// Exact machine-wide barrier-instruction count (dmb/dsb/isb retired
  /// across all cores) — barriers/acquisition is the paper's per-variant
  /// cost axis (ISSUE 9 cna_scaling).
  std::uint64_t barriers = 0;
};

/// Ticket lock (Fig 7a). `release_barrier` is the unlock's release edge on
/// the now-serving store (kNone removes it: "Remove barrier after RMR");
/// the acquire edge is the strong ticket entry's.
LockResult run_ticket(const sim::PlatformSpec& spec, const LockWorkload& w,
                      OrderChoice release_barrier);

/// FFWD delegation lock (Fig 7b/7c). `request_barrier` = Algorithm 5 line
/// 4, `response_barrier` = line 7 (ignored with pilot); the clients' reply
/// edge is the strong FFWD entry's. One server core + w.threads client
/// cores.
struct FfwdChoice {
  OrderChoice request_barrier = OrderChoice::kLdar;  // kLdar: seq load is LDAR
  OrderChoice response_barrier = OrderChoice::kDmbSt;
  bool pilot = false;
};
LockResult run_ffwd(const sim::PlatformSpec& spec, const LockWorkload& w,
                    const FfwdChoice& choice);

/// CNA (compact NUMA-aware) queue lock (ISSUE 9): MCS-style queue where
/// the unlocker prefers a same-socket successor, parking remote waiters on
/// a secondary queue carried in the holder's node and splicing them back
/// after `local_handoff_cap` consecutive local handoffs (deterministic
/// long-term fairness). The acquire/release edges on the grant word are
/// configurable so the paper's Table 3 weakenings are measurable.
struct CnaChoice {
  OrderChoice acquire_barrier = OrderChoice::kNone;  ///< grant-spin edge
  OrderChoice release_barrier = OrderChoice::kNone;  ///< grant-store edge
  std::uint32_t local_handoff_cap = 64;
  bool numa_aware = true;  ///< false: plain MCS handoff (scaling baseline)
  /// NUMA-aware CNA with handoff_edges(kCna, s): the edges lockver verifies.
  static CnaChoice of(Strength s) {
    const HandoffEdges e = handoff_edges(LockFamily::kCna, s);
    return {e.acquire, e.release, 64, true};
  }
  /// Plain MCS handoff with the strong edges (the scaling baseline).
  static CnaChoice mcs() {
    CnaChoice c = of(Strength::kStrong);
    c.numa_aware = false;
    return c;
  }
};
LockResult run_cna(const sim::PlatformSpec& spec, const LockWorkload& w,
                   const CnaChoice& choice);

/// CC-Synch combining lock ("DSynch"). `pilot` piggybacks the response.
struct CcSynchChoice {
  OrderChoice response_barrier = OrderChoice::kDmbSt;
  bool pilot = false;
  std::uint32_t combine_budget = 64;
};
LockResult run_ccsynch(const sim::PlatformSpec& spec, const LockWorkload& w,
                       const CcSynchChoice& choice);

}  // namespace armbar::simprog

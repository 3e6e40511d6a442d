// Platform presets (paper Table 2) and the timing parameters of the model.
//
// The instruction set only defines *behaviour*; performance characteristics
// belong to an implementation (paper §3.1). Each preset below is one
// "implementation": a topology plus a latency table calibrated so that the
// paper's qualitative results reproduce (tipping points, orderings,
// server-vs-mobile contrast). Absolute values are simulated cycles, not a
// cycle-accurate model of the silicon.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace armbar::sim {

/// Timing parameters. All values in core cycles.
struct Latencies {
  // --- core ---
  std::uint32_t alu = 1;             ///< ALU result-ready delay
  std::uint32_t cache_hit = 2;       ///< load hit in the private cache
  std::uint32_t sb_hit = 1;          ///< store-buffer forward to own load
  std::uint32_t sb_insert = 1;       ///< store retire into the store buffer
  /// Cycles a store sits in the buffer before its drain may request
  /// ownership. This window is what lets program-order-later loads overtake
  /// stores (the SB litmus shape / TSO's one relaxation).
  std::uint32_t sb_drain_delay = 8;
  std::uint32_t owned_drain = 2;     ///< drain when the line is already owned (M/E)
  std::uint32_t pipeline_flush = 12; ///< ISB / branch-squash refill penalty
  std::uint32_t barrier_base = 1;    ///< barrier completing with nothing pending

  // --- memory hierarchy (per request; see MemorySystem) ---
  std::uint32_t mem_local = 110;     ///< fill from home-node memory
  std::uint32_t mem_remote = 220;    ///< fill from remote-node memory
  std::uint32_t c2c_local = 90;      ///< cache-to-cache transfer within a node
  std::uint32_t c2c_remote = 320;    ///< cache-to-cache transfer across nodes
  std::uint32_t inv_local = 150;     ///< ownership acquisition, sharers within node
  std::uint32_t inv_remote = 700;    ///< ownership acquisition, remote sharers
  /// Read-share transfers pipeline: a GetS occupies the line's service
  /// port for this long, while the requester still waits the full
  /// latency. Ownership transfers (GetM) serialize fully. This keeps a
  /// post-release thundering herd from swamping every other effect.
  std::uint32_t read_occupancy = 12;

  // --- ACE barrier transactions (paper §2.3) ---
  /// Memory-barrier transaction reaching the inner bi-section boundary
  /// (all snooped cores on the issuing node).
  std::uint32_t bus_mem_local = 18;
  /// Memory-barrier transaction that must reach the inner domain boundary
  /// because cross-node snooping was involved.
  std::uint32_t bus_mem_cross = 70;
  /// Synchronization-barrier transaction. Always travels to the inner
  /// domain boundary regardless of locality (Observation 5).
  std::uint32_t bus_sync = 550;
  /// Extra global-visibility acknowledgement a store-release drain waits
  /// for before it can retire from the store buffer (Observation 3).
  std::uint32_t stlr_extra = 140;

  // --- structure sizes ---
  std::uint32_t sb_entries = 24;     ///< store buffer capacity
  std::uint32_t sb_mshrs = 8;        ///< concurrent outstanding drains
  std::uint32_t lq_entries = 16;     ///< outstanding loads
  std::uint32_t max_spec_branches = 4;
  std::uint32_t wfe_timeout = 512;   ///< WFE wakes spuriously after this many cycles
};

/// A simulated machine description.
struct PlatformSpec {
  std::string name;
  std::string arch;                  ///< marketing core name, for Table 2
  std::uint32_t nodes = 1;           ///< NUMA nodes
  std::uint32_t cores_per_node = 4;
  double freq_ghz = 2.0;             ///< used only to convert cycles -> loops/s
  std::string interconnect;
  Latencies lat;
  /// Multi-copy-atomic mode (ARMv8.4 / Pulte et al.): DMB transactions
  /// terminate internally — bus_mem_* collapse to barrier_base. Extension
  /// knob for the ablation bench; all paper platforms are modelled non-MCA.
  bool mca = false;

  std::uint32_t total_cores() const { return nodes * cores_per_node; }
  NodeId node_of(CoreId c) const { return c / cores_per_node; }
};

/// Kunpeng 916: the ARM server (2 sockets x 32 cores, deep interconnect).
PlatformSpec kunpeng916();
/// Kirin 960: mobile big.LITTLE (modelled as the 4-core big cluster + 4 LITTLE).
PlatformSpec kirin960();
/// Kirin 970: same layout, higher clock, slightly faster uncore.
PlatformSpec kirin970();
/// Raspberry Pi 4: 4x Cortex-A72, simple bus.
PlatformSpec rpi4();

/// All four presets, in the paper's Table 2 order.
std::vector<PlatformSpec> all_platforms();

/// Look up a preset by name; aborts on unknown name.
PlatformSpec platform_by_name(const std::string& name);

/// True when `name` names a preset. Otherwise fills *err with a message
/// that names it and lists the presets: the check for command-line input.
bool known_platform(const std::string& name, std::string* err);

}  // namespace armbar::sim

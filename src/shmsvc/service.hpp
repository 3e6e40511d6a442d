// Process-level service harness over the shm channels (DESIGN.md §15):
// worker entry points (re-exec'd producer/consumer processes), the Fleet
// supervisor that spawns/kills/restarts them, the post-run audit that turns
// the mark arrays into exact delivery accounting, and the emergency-cleanup
// registry that guarantees no orphaned children or segments on SIGINT/
// SIGTERM (ISSUE 8 satellite).
#pragma once

#include <sys/types.h>

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "shmsvc/channel.hpp"
#include "shmsvc/seg.hpp"

namespace armbar::shmsvc {

// ---------------------------------------------------------------------------
// Worker processes

/// Everything a re-exec'd worker needs, carried on its argv.
struct WorkerOpts {
  std::string attach;  ///< full shm name
  Role role = Role::kConsumer;
  std::uint32_t channel = 0;
  std::uint64_t payload_seed = 0;
  ChannelTuning tuning{};
  CrashPlan crash{};
};

/// Worker exit codes the supervisor classifies on.
inline constexpr int kWorkerOk = 0;
inline constexpr int kWorkerStalled = 3;      ///< StallError: the hang detector
inline constexpr int kWorkerMisdelivery = 4;  ///< payload != payload_at(ticket)
inline constexpr int kWorkerAttachFailed = 5;

/// If argv contains "--role", runs the worker loop and returns its exit
/// code; returns -1 otherwise. Every tool calls this first so one binary
/// serves as both CLI and re-exec target.
int maybe_run_worker(int argc, char** argv);

/// Locates a sibling tool binary (same dir as /proc/self/exe, then ../tools
/// and deeper ancestors, then $ARMBAR_TOOL_DIR). Empty string if not found.
std::string find_tool(const std::string& name);

// ---------------------------------------------------------------------------
// Emergency cleanup (SIGINT/SIGTERM and runner-interrupt hardening)

/// Fleet registers every live child and segment here; emergency_cleanup()
/// SIGKILLs + reaps the children and unlinks the segments. Idempotent and
/// callable from the runner's interrupt-cleanup hook or a tool's signal
/// epilogue.
void register_live_child(pid_t pid);
void forget_child(pid_t pid);
void register_segment(const std::string& shm_name);
void forget_segment(const std::string& shm_name);
void emergency_cleanup();

/// Installs SIGINT/SIGTERM latching handlers and returns the flag they set
/// (the signal number). Tools poll it via Fleet's interrupt callback.
volatile std::sig_atomic_t* install_tool_signals();

// ---------------------------------------------------------------------------
// Fleet supervision

enum class ChaosVictims : std::uint8_t { kAll, kProducersOnly };

struct FleetConfig {
  SegmentConfig seg{};       ///< geometry (ignored when attaching)
  std::string attach;        ///< non-empty: attach instead of create
  bool spawn_producers = true;
  bool spawn_consumers = true;
  std::uint32_t consumers_per_channel = 2;
  ChannelTuning tuning{};
  std::string worker_bin;    ///< re-exec target; empty = /proc/self/exe
  std::uint64_t deadline_ms = 180000;  ///< global no-hang watchdog

  // Chaos (all zero/off for plain load runs):
  bool chaos = false;
  std::uint64_t chaos_seed = 1;
  std::uint64_t chaos_ms = 0;        ///< kill window; then stop+drain
  std::uint64_t chaos_max_kills = 0; ///< end the kill window early (0 = by time)
  /// Gap between kills in a timed window. A window of chaos_ms 0 ends by
  /// its kill budget alone and spaces the kills by production instead
  /// (one per records / (2 * chaos_max_kills) tickets, all channels).
  std::uint32_t kill_min_ms = 120;
  std::uint32_t kill_max_ms = 280;
  /// Probability (percent) that a spawned worker carries an in-op crash
  /// plan (SIGKILL inside produce/consume) on top of supervisor kills.
  std::uint32_t crash_plan_pct = 50;
  ChaosVictims victims = ChaosVictims::kAll;
  bool run_gc = true;  ///< sweep stale segments during teardown
  bool verbose = false;
};

/// Exact per-channel accounting decoded from the mark array, plus the
/// recovery tallies. The identity that must hold after a drained run:
///   produced == delivered + gaps, cons == prod, duplicates == 0,
///   unmarked == 0, overmarks == 0.
struct ChannelAudit {
  std::uint64_t produced = 0;    ///< final prod counter
  std::uint64_t consumed = 0;    ///< final cons counter
  std::uint64_t delivered = 0;   ///< marks with a standing delivered component
  std::uint64_t gaps = 0;        ///< marks that are pure gap
  std::uint64_t duplicates = 0;  ///< marks with >= 2 delivered components
  std::uint64_t unmarked = 0;    ///< tickets < prod with mark 0
  std::uint64_t overmarks = 0;   ///< tickets >= prod with mark != 0
  std::uint64_t generation = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t gaps_tombstoned = 0;
  std::uint64_t gaps_reclaimed = 0;
  std::uint64_t intents_rescued = 0;
  std::uint64_t slot_reclaims = 0;
  std::uint64_t seq_repairs = 0;
  std::uint64_t lock_steals = 0;
  std::uint64_t peer_reclaims = 0;
  std::uint64_t barriers = 0;
  std::uint64_t full_barriers = 0;
  std::uint64_t futex_waits = 0;
  bool identity_ok = false;
};

struct FleetResult {
  bool ok = false;
  bool interrupted = false;
  std::string error;
  double seconds = 0.0;       ///< spawn → drained
  std::uint64_t produced = 0;
  std::uint64_t delivered = 0;
  std::uint64_t gaps = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t kills = 0;      ///< supervisor-sent SIGKILLs
  std::uint64_t restarts = 0;   ///< respawns after a signal death (cycles)
  std::uint64_t barriers = 0;
  std::uint64_t full_barriers = 0;
  std::uint64_t futex_waits = 0;
  double mps = 0.0;           ///< delivered records per second, millions
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::vector<ChannelAudit> channels;
  int gc_removed = 0;
  bool segments_clean = false;  ///< no segment of ours left after teardown
};

/// Spawns, supervises, chaos-kills, restarts, drains, audits, and reclaims
/// one fleet. `interrupted` (optional) is polled every supervision tick;
/// returning true aborts the run with result.interrupted set (children are
/// killed and reaped, the segment is unlinked if owned).
class Fleet {
 public:
  explicit Fleet(FleetConfig cfg);
  FleetResult run(const std::function<bool()>& interrupted = {});

 private:
  FleetConfig cfg_;
};

}  // namespace armbar::shmsvc

// Host-side self-profiler (ISSUE 6): RAII scoped timers + counters with
// per-thread accumulation, observing the *host* cost of the simulator the
// way src/trace/ observes the *guest* (simulated barriers).
//
// Design constraints, in order:
//   1. Negligible overhead when off. Every hook first reads one relaxed
//      atomic; a disabled ScopedTimer is a branch and two dead stores.
//   2. No synchronization on the hot path. Each thread accumulates into a
//      thread-local calltree (intrusive first-child/next-sibling nodes
//      keyed by a fixed Phase enum); the only locks are at thread
//      registration, thread exit and snapshot().
//   3. Cheap timestamps. Scopes record raw ticks (CNTVCT_EL0 on AArch64,
//      TSC on x86-64, steady_clock elsewhere); conversion to ns happens
//      once, lazily, at snapshot time.
//
// Sessions: set_enabled(true) starts recording into the current epoch;
// reset() bumps the epoch, which each thread observes lazily and clears
// its own tree (no cross-thread mutation, so no data race with a thread
// mid-scope). snapshot() merges every registered thread's tree — call it
// at quiescence (no worker actively simulating), which is where the engine
// calls it: after all pool work for the run has completed.
//
// Phase totals in a Snapshot are flattened two ways:
//   * total_ns counts a phase's *topmost* occurrences only, so a phase
//     that re-enters itself (recursive enumeration) is not double-counted;
//   * self_ns is total minus time attributed to child phases — the number
//     a flamegraph's leaf width shows, and the one the report validator
//     requires to be monotone-summable (sum of self <= wall * threads).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace armbar::prof {

/// Fixed attribution scopes. A closed enum instead of strings: hook sites
/// pay an integer compare, not a hash, and exports stay deterministic.
enum class Phase : std::uint8_t {
  kSimRun,         ///< Machine::run, whole interpreter loop
  kSimSchedule,    ///< event-queue scan: next attention over live cores
  kSimCoherence,   ///< MemorySystem load/store/exchange
  kSimVerify,      ///< MachineVerifier cadence sweeps
  kTraceEmit,      ///< tracer ring writes (the observer's own cost)
  kModelEnumerate, ///< axiomatic model enumerate_outcomes
  kFuzzGenerate,   ///< fuzz seed -> program generation
  kFuzzDiff,       ///< differential run (model + platform sweep)
  kBenchNullLoop,  ///< sim_perf's null-interpreter calibration loop
  kCacheLookup,    ///< ResultCache::lookup: entry read, parse, metrics decode
};
inline constexpr std::size_t kNumPhases = 10;
const char* phase_name(Phase p);

/// Process-wide monotonic counters (merged across threads at snapshot).
enum class Counter : std::uint8_t {
  kSimInstructions,  ///< guest instructions retired across all runs
  kSimSteps,         ///< Core::step calls: a NOP run retires in one
  kSimHeapPushes,    ///< AttentionQueue heap pushes (run loop + wake hook)
  kSimLaneHits,      ///< cores handed to a sweep by the next-cycle lane
  kSimPumps,         ///< store-buffer pumps run (the pump gate let through)
  kSimRuns,          ///< Machine::run completions
  kSimCycles,        ///< simulated cycles across all runs
  kModelExecutions,  ///< model-checker candidates examined
  kCacheHits,
  kCacheMisses,
  kCacheStores,
  kCacheEvictions,   ///< corrupt/stale entries dropped at lookup
};
inline constexpr std::size_t kNumCounters = 12;
const char* counter_name(Counter c);

struct PhaseStats {
  std::uint64_t count = 0;     ///< scope entries
  std::uint64_t total_ns = 0;  ///< topmost occurrences only (no re-entrant
                               ///< double counting)
  std::uint64_t self_ns = 0;   ///< total minus child-phase time
};

/// One merged calltree node (preorder; parent < index; -1 = a root).
struct SnapshotNode {
  Phase phase{};
  std::int32_t parent = -1;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Point-in-time merge of every thread's accumulation since the last
/// reset(). Pure read: taking a snapshot twice yields identical trees.
struct Snapshot {
  std::uint64_t wall_ns = 0;  ///< since reset() (or process start)
  std::uint32_t threads = 0;  ///< threads that contributed samples
  std::array<PhaseStats, kNumPhases> phases{};
  std::array<std::uint64_t, kNumCounters> counters{};
  std::vector<SnapshotNode> nodes;  ///< merged tree, deterministic order

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const PhaseStats& phase(Phase p) const {
    return phases[static_cast<std::size_t>(p)];
  }
  bool has_data() const;
};

namespace detail {
extern std::atomic<bool> g_enabled;
/// Push a Phase node on this thread's tree; returns the node index and
/// writes the start tick. Out of line: the common case is enabled()==false
/// and the call never happens.
std::int32_t enter(Phase p, std::uint64_t* start_ticks);
/// Pop: accumulate ticks since `start_ticks` into node `idx`. Tolerates a
/// reset() that happened mid-scope (the sample is dropped).
void leave(std::int32_t idx, std::uint64_t start_ticks);
void count_slow(Counter c, std::uint64_t delta);
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Start a fresh profiling epoch: every thread's accumulation (and the
/// retired-thread pool) is discarded; the snapshot wall clock restarts.
/// Threads observe the epoch bump lazily at their next hook, so reset()
/// never touches another thread's tree.
void reset();

inline void count(Counter c, std::uint64_t delta = 1) {
  if (enabled()) detail::count_slow(c, delta);
}

Snapshot snapshot();

/// RAII scope: attributes the enclosing block to `p` on this thread.
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase p) {
    if (enabled()) idx_ = detail::enter(p, &start_);
  }
  ~ScopedTimer() {
    if (idx_ >= 0) detail::leave(idx_, start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::uint64_t start_ = 0;
  std::int32_t idx_ = -1;
};

/// Scoped profiling session: enables (and resets) the profiler unless an
/// outer session — e.g. the engine's --profile whole-run session — already
/// owns it, in which case this is a no-op and the outer session's
/// accumulation continues uninterrupted.
class Session {
 public:
  Session() {
    if (!enabled()) {
      reset();
      set_enabled(true);
      owned_ = true;
    }
  }
  ~Session() {
    if (owned_) set_enabled(false);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  bool owned() const { return owned_; }

 private:
  bool owned_ = false;
};

}  // namespace armbar::prof

// Hot-path hook macros: a scoped timer named after its line, and a counter
// bump.
#define ARMBAR_PROF_CONCAT_IMPL(a, b) a##b
#define ARMBAR_PROF_CONCAT(a, b) ARMBAR_PROF_CONCAT_IMPL(a, b)
#define ARMBAR_PROF_SCOPE(phase)                               \
  ::armbar::prof::ScopedTimer ARMBAR_PROF_CONCAT(              \
      armbar_prof_scope_, __LINE__)(::armbar::prof::Phase::phase)
#define ARMBAR_PROF_COUNT(counter, delta) \
  ::armbar::prof::count(::armbar::prof::Counter::counter, (delta))

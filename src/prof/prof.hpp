// Host-side self-profiler (ISSUE 6): RAII scoped timers + counters with
// per-thread accumulation, observing the *host* cost of the simulator the
// way src/trace/ observes the *guest* (simulated barriers).
//
// Design constraints, in order:
//   1. Negligible overhead when off. Every hook first reads one relaxed
//      atomic; a disabled ScopedTimer is a branch and a dead store.
//   2. No synchronization on the hot path. Each thread accumulates into a
//      thread-local flat table (per Phase: count, total and self ticks;
//      per Counter: a total) through a stack of open frames; the only
//      locks are at thread registration, thread exit and snapshot().
//   3. Cheap timestamps. Scopes record raw ticks (CNTVCT_EL0 on AArch64,
//      TSC on x86-64, steady_clock elsewhere); conversion to ns happens
//      once, at snapshot time.
//
// Sessions: set_enabled(true) starts recording into the current epoch;
// reset() bumps the epoch, which each thread observes lazily and clears
// its own table (no cross-thread mutation, so no data race with a thread
// mid-scope). snapshot() sums every registered thread's table — call it
// at quiescence (no worker actively simulating), which is where the engine
// calls it: after all pool work for the run has completed.
//
// Each closed scope bills its phase two ways:
//   * total_ns counts a phase's *topmost* occurrences only, so a phase
//     that re-enters itself (recursive enumeration) is not double-counted;
//   * self_ns is the scope's time minus the scopes closed inside it — the
//     number the report validator requires to be monotone-summable (sum
//     of self <= wall * threads).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace armbar::prof {

/// Fixed attribution scopes. A closed enum instead of strings: hook sites
/// pay an integer index, not a hash, and exports stay deterministic.
enum class Phase : std::uint8_t {
  kSimRun,         ///< Machine::run, whole interpreter loop
  kSimCoherence,   ///< MemorySystem load/store/exchange
  kSimVerify,      ///< MachineVerifier cadence sweeps
  kTraceEmit,      ///< tracer ring writes (the observer's own cost)
  kModelEnumerate, ///< axiomatic model enumerate_outcomes
  kFuzzGenerate,   ///< fuzz seed -> program generation
  kFuzzDiff,       ///< differential run (model + platform sweep)
  kBenchNullLoop,  ///< sim_perf's null-interpreter calibration loop
  kCacheLookup,    ///< ResultCache::lookup: entry read, parse, metrics decode
};
inline constexpr std::size_t kNumPhases = 9;
const char* phase_name(Phase p);

/// Process-wide monotonic counters (summed across threads at snapshot).
enum class Counter : std::uint8_t {
  kSimInstructions,  ///< guest instructions retired across all runs
  kSimSteps,         ///< Core::step calls: a NOP run retires in one
  kSimHeapPushes,    ///< AttentionQueue heap pushes (run loop + wake hook)
  kSimLaneHits,      ///< cores handed to a sweep by the next-cycle lane
  kSimPumps,         ///< store-buffer pumps run (the pump gate let through)
  kSimRuns,          ///< Machine::run completions
  kSimCycles,        ///< simulated cycles across all runs
  kModelExecutions,  ///< model-checker candidates examined
};
inline constexpr std::size_t kNumCounters = 8;
const char* counter_name(Counter c);

struct PhaseStats {
  std::uint64_t count = 0;     ///< closed scopes
  std::uint64_t total_ns = 0;  ///< topmost occurrences only (no re-entrant
                               ///< double counting)
  std::uint64_t self_ns = 0;   ///< total minus time in scopes nested inside
};

/// Point-in-time sum of every thread's table since the last reset(). Pure
/// read: taking a snapshot twice yields identical tables.
struct Snapshot {
  std::uint64_t wall_ns = 0;  ///< since reset() (or process start)
  std::uint32_t threads = 0;  ///< threads that contributed samples
  std::array<PhaseStats, kNumPhases> phases{};
  std::array<std::uint64_t, kNumCounters> counters{};

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
/// Open a frame for `p` on this thread's stack; returns its depth. Out of
/// line: the common case is enabled()==false and the call never happens.
std::int32_t enter(Phase p);
/// Close the frame at `depth` and bill its ticks. Tolerates a reset() that
/// happened mid-scope (the frame is gone; the sample is dropped).
void leave(std::int32_t depth);
void count_slow(Counter c, std::uint64_t delta);
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Start a fresh profiling epoch: every thread's accumulation (and the
/// retired-thread pool) is discarded; the snapshot wall clock restarts.
/// Threads observe the epoch bump lazily at their next hook, so reset()
/// never touches another thread's table.
void reset();

inline void count(Counter c, std::uint64_t delta = 1) {
  if (enabled()) detail::count_slow(c, delta);
}

Snapshot snapshot();

/// RAII scope: attributes the enclosing block to `p` on this thread.
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase p) {
    if (enabled()) depth_ = detail::enter(p);
  }
  ~ScopedTimer() {
    if (depth_ >= 0) detail::leave(depth_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::int32_t depth_ = -1;
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

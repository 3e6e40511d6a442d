#include "prof/prof.hpp"

#include <chrono>
#include <mutex>
#include <vector>

namespace armbar::prof {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSimRun: return "sim.run";
    case Phase::kSimCoherence: return "sim.coherence";
    case Phase::kSimVerify: return "sim.verify";
    case Phase::kTraceEmit: return "trace.emit";
    case Phase::kModelEnumerate: return "model.enumerate";
    case Phase::kFuzzGenerate: return "fuzz.generate";
    case Phase::kFuzzDiff: return "fuzz.diff";
    case Phase::kBenchNullLoop: return "bench.null_loop";
    case Phase::kCacheLookup: return "cache.lookup";
  }
  return "?";
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kSimInstructions: return "sim.instructions";
    case Counter::kSimSteps: return "sim.steps";
    case Counter::kSimHeapPushes: return "sim.heap_pushes";
    case Counter::kSimLaneHits: return "sim.lane_hits";
    case Counter::kSimPumps: return "sim.pumps";
    case Counter::kSimRuns: return "sim.runs";
    case Counter::kSimCycles: return "sim.cycles";
    case Counter::kModelExecutions: return "model.executions";
  }
  return "?";
}

bool Snapshot::has_data() const {
  for (const PhaseStats& p : phases)
    if (p.count != 0) return true;
  for (std::uint64_t c : counters)
    if (c != 0) return true;
  return false;
}

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

using Clock = std::chrono::steady_clock;

/// One thread's accumulation in raw ticks, per phase and per counter.
struct Table {
  std::array<std::uint64_t, kNumPhases> count{};
  std::array<std::uint64_t, kNumPhases> total{};
  std::array<std::uint64_t, kNumPhases> self{};
  std::array<std::uint64_t, kNumCounters> counters{};

  bool empty() const {
    for (std::uint64_t n : count)
      if (n != 0) return false;
    for (std::uint64_t c : counters)
      if (c != 0) return false;
    return true;
  }
};

/// An open scope: its phase, its start tick, and the ticks of the scopes
/// already closed inside it (subtracted from its self time).
struct Frame {
  Phase phase;
  std::uint64_t start;
  std::uint64_t nested;
};

struct ThreadState {
  Table table;
  /// A fixed array, not a vector: the hot path pays no capacity check. A
  /// scope opened 16 deep is not recorded; no code path nests past four.
  std::array<Frame, 16> stack;
  std::uint32_t depth = 0;
  std::array<std::uint32_t, kNumPhases> open{};  ///< open frames per phase
  std::uint64_t epoch = 0;

  void start_epoch(std::uint64_t e) {
    epoch = e;
    table = Table{};
    depth = 0;
    open.fill(0);
  }
};

/// A thread's table parked when the thread exits, so its samples survive
/// it (pool workers may die before the engine snapshots).
struct Retired {
  Table table;
  std::uint64_t epoch = 0;
};

struct Global {
  std::mutex mu;
  std::vector<ThreadState*> threads;
  std::vector<Retired> retired;
  std::atomic<std::uint64_t> epoch{1};
  Clock::time_point session_start = Clock::now();
};

Global& g() {
  static Global* instance = new Global();  // leaked: outlives thread dtors
  return *instance;
}

/// Registers on first touch, parks its samples on thread exit.
struct ThreadStateHolder {
  ThreadState state;
  ThreadStateHolder() {
    Global& G = g();
    std::lock_guard<std::mutex> lock(G.mu);
    state.start_epoch(G.epoch.load(std::memory_order_relaxed));
    G.threads.push_back(&state);
  }
  ~ThreadStateHolder() {
    Global& G = g();
    std::lock_guard<std::mutex> lock(G.mu);
    for (auto it = G.threads.begin(); it != G.threads.end(); ++it) {
      if (*it == &state) {
        G.threads.erase(it);
        break;
      }
    }
    if (!state.table.empty()) G.retired.push_back({state.table, state.epoch});
  }
};

ThreadState& tls() {
  thread_local ThreadStateHolder holder;
  return holder.state;
}

void sync_epoch(ThreadState& t) {
  const std::uint64_t e = g().epoch.load(std::memory_order_acquire);
  if (t.epoch != e) t.start_epoch(e);
}

std::uint64_t now_ticks() {
#if defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#elif defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

/// ns per raw tick, computed once, off the hot path (snapshot only).
double ns_per_tick() {
  static const double v = [] {
#if defined(__aarch64__)
    std::uint64_t f;
    asm volatile("mrs %0, cntfrq_el0" : "=r"(f));
    if (f != 0) return 1e9 / static_cast<double>(f);
#endif
    // Calibrate against steady_clock over a ~2ms busy window. Good to a
    // few percent, which is plenty for attribution shares.
    const auto c0 = Clock::now();
    const std::uint64_t t0 = now_ticks();
    while (Clock::now() - c0 < std::chrono::milliseconds(2)) {
    }
    const auto c1 = Clock::now();
    const std::uint64_t t1 = now_ticks();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(c1 - c0).count());
    return t1 > t0 ? ns / static_cast<double>(t1 - t0) : 1.0;
  }();
  return v;
}

}  // namespace

namespace detail {

std::int32_t enter(Phase p) {
  ThreadState& t = tls();
  sync_epoch(t);
  if (t.depth == t.stack.size()) return -1;
  ++t.open[static_cast<std::size_t>(p)];
  t.stack[t.depth] = {p, now_ticks(), 0};
  return static_cast<std::int32_t>(t.depth++);
}

void leave(std::int32_t depth) {
  ThreadState& t = tls();
  // A reset() between enter and leave cleared the stack, so this frame is
  // no longer on top. Drop the sample — the new epoch must not inherit a
  // half-open scope.
  if (t.depth != static_cast<std::uint32_t>(depth) + 1) return;
  const Frame& f = t.stack[t.depth - 1];
  const std::uint64_t ticks = now_ticks() - f.start;
  const auto i = static_cast<std::size_t>(f.phase);
  ++t.table.count[i];
  t.table.self[i] += ticks > f.nested ? ticks - f.nested : 0;
  if (--t.open[i] == 0) t.table.total[i] += ticks;
  if (--t.depth != 0) t.stack[t.depth - 1].nested += ticks;
}

void count_slow(Counter c, std::uint64_t delta) {
  ThreadState& t = tls();
  sync_epoch(t);
  t.table.counters[static_cast<std::size_t>(c)] += delta;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  G.epoch.fetch_add(1, std::memory_order_release);
  G.retired.clear();
  G.session_start = Clock::now();
}

Snapshot snapshot() {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  const std::uint64_t e = G.epoch.load(std::memory_order_acquire);

  Snapshot s;
  s.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           G.session_start)
          .count());

  Table sum;
  const auto add = [&](const Table& t) {
    if (t.empty()) return;
    ++s.threads;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      sum.count[i] += t.count[i];
      sum.total[i] += t.total[i];
      sum.self[i] += t.self[i];
    }
    for (std::size_t i = 0; i < kNumCounters; ++i)
      sum.counters[i] += t.counters[i];
  };
  for (const ThreadState* t : G.threads)
    if (t->epoch == e) add(t->table);
  for (const Retired& r : G.retired)
    if (r.epoch == e) add(r.table);

  const double npt = ns_per_tick();
  const auto ns = [npt](std::uint64_t ticks) {
    return static_cast<std::uint64_t>(static_cast<double>(ticks) * npt);
  };
  for (std::size_t i = 0; i < kNumPhases; ++i)
    s.phases[i] = {sum.count[i], ns(sum.total[i]), ns(sum.self[i])};
  s.counters = sum.counters;
  return s;
}

}  // namespace armbar::prof

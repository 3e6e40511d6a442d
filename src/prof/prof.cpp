#include "prof/prof.hpp"

#include <chrono>
#include <map>
#include <mutex>

namespace armbar::prof {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSimRun: return "sim.run";
    case Phase::kSimSchedule: return "sim.schedule";
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
    case Counter::kCacheHits: return "cache.hits";
    case Counter::kCacheMisses: return "cache.misses";
    case Counter::kCacheStores: return "cache.stores";
    case Counter::kCacheEvictions: return "cache.evictions";
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

#if !defined(ARMBAR_PROF_DISABLED)

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

using Clock = std::chrono::steady_clock;

/// One calltree node. First-child/next-sibling links instead of per-node
/// maps: a node is 32 bytes and a child lookup is a short pointer chase
/// over siblings (trees here have < a dozen distinct children per node).
struct Node {
  Phase phase{};
  std::int32_t parent = -1;
  std::int32_t child = -1;
  std::int32_t sibling = -1;
  std::uint64_t ticks = 0;
  std::uint64_t count = 0;
};

/// Per-thread accumulation. Index 0 is the virtual root (phase unused).
struct ThreadState {
  std::vector<Node> nodes;
  std::array<std::uint64_t, kNumCounters> counters{};
  std::int32_t cur = 0;
  std::uint64_t epoch = 0;

  void start_epoch(std::uint64_t e) {
    epoch = e;
    nodes.clear();
    nodes.push_back(Node{});
    counters.fill(0);
    cur = 0;
  }
};

/// Snapshot-relevant copy of a thread's state, parked when the thread
/// exits so its samples survive it (pool workers may die before the
/// engine snapshots).
struct RetiredState {
  std::vector<Node> nodes;
  std::array<std::uint64_t, kNumCounters> counters{};
  std::uint64_t epoch = 0;
};

struct Global {
  std::mutex mu;
  std::vector<ThreadState*> threads;
  std::vector<RetiredState> retired;
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
    if (state.nodes.size() > 1 ||
        state.counters != std::array<std::uint64_t, kNumCounters>{}) {
      RetiredState r;
      r.nodes = std::move(state.nodes);
      r.counters = state.counters;
      r.epoch = state.epoch;
      G.retired.push_back(std::move(r));
    }
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

/// Merge tree: map-keyed children for deterministic (phase-ordered)
/// flattening regardless of which thread created a node first.
struct MergeNode {
  std::map<Phase, std::size_t> kids;
  std::uint64_t ticks = 0;
  std::uint64_t count = 0;
};

void merge_tree(const std::vector<Node>& src, std::int32_t src_idx,
                std::vector<MergeNode>& dst, std::size_t dst_idx) {
  for (std::int32_t c = src[src_idx].child; c >= 0; c = src[c].sibling) {
    auto [it, inserted] =
        dst[dst_idx].kids.try_emplace(src[c].phase, dst.size());
    if (inserted) dst.push_back(MergeNode{});
    const std::size_t d = it->second;
    dst[d].ticks += src[c].ticks;
    dst[d].count += src[c].count;
    merge_tree(src, c, dst, d);
  }
}

/// Preorder flatten; fills total/count, self computed by the caller.
void flatten(const std::vector<MergeNode>& m, std::size_t m_idx,
             std::int32_t parent, double npt, Snapshot& s) {
  for (const auto& [phase, kid] : m[m_idx].kids) {
    SnapshotNode n;
    n.phase = phase;
    n.parent = parent;
    n.count = m[kid].count;
    n.total_ns =
        static_cast<std::uint64_t>(static_cast<double>(m[kid].ticks) * npt);
    const std::int32_t idx = static_cast<std::int32_t>(s.nodes.size());
    s.nodes.push_back(n);
    flatten(m, kid, idx, npt, s);
  }
}

}  // namespace

namespace detail {

std::int32_t enter(Phase p, std::uint64_t* start_ticks) {
  ThreadState& t = tls();
  sync_epoch(t);
  std::int32_t c = t.nodes[t.cur].child;
  while (c >= 0 && t.nodes[c].phase != p) c = t.nodes[c].sibling;
  if (c < 0) {
    c = static_cast<std::int32_t>(t.nodes.size());
    t.nodes.push_back(
        Node{p, t.cur, -1, t.nodes[t.cur].child, 0, 0});
    t.nodes[t.cur].child = c;
  }
  t.cur = c;
  *start_ticks = now_ticks();
  return c;
}

void leave(std::int32_t idx, std::uint64_t start_ticks) {
  ThreadState& t = tls();
  // A reset() between enter and leave cleared the tree; `cur` then no
  // longer points at our node. Drop the sample — the new epoch must not
  // inherit a half-open scope.
  if (idx < 0 || static_cast<std::size_t>(idx) >= t.nodes.size() ||
      t.cur != idx)
    return;
  Node& n = t.nodes[idx];
  n.ticks += now_ticks() - start_ticks;
  ++n.count;
  t.cur = n.parent;
}

void count_slow(Counter c, std::uint64_t delta) {
  ThreadState& t = tls();
  sync_epoch(t);
  t.counters[static_cast<std::size_t>(c)] += delta;
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

  std::vector<MergeNode> merged;
  merged.push_back(MergeNode{});  // root
  const auto contribute = [&](const std::vector<Node>& nodes,
                              const std::array<std::uint64_t, kNumCounters>&
                                  counters) {
    bool any = nodes.size() > 1;
    if (!nodes.empty()) merge_tree(nodes, 0, merged, 0);
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      s.counters[i] += counters[i];
      any = any || counters[i] != 0;
    }
    if (any) ++s.threads;
  };
  for (const ThreadState* t : G.threads)
    if (t->epoch == e) contribute(t->nodes, t->counters);
  for (const RetiredState& r : G.retired)
    if (r.epoch == e) contribute(r.nodes, r.counters);

  const double npt = ns_per_tick();
  flatten(merged, 0, -1, npt, s);

  // self = total minus child totals (clamped: timer jitter can make the
  // children sum a hair past the parent).
  std::vector<std::uint64_t> child_ns(s.nodes.size(), 0);
  for (std::size_t i = 0; i < s.nodes.size(); ++i)
    if (s.nodes[i].parent >= 0)
      child_ns[static_cast<std::size_t>(s.nodes[i].parent)] +=
          s.nodes[i].total_ns;
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    SnapshotNode& n = s.nodes[i];
    n.self_ns = n.total_ns > child_ns[i] ? n.total_ns - child_ns[i] : 0;
    PhaseStats& p = s.phases[static_cast<std::size_t>(n.phase)];
    p.count += n.count;
    p.self_ns += n.self_ns;
    // total counts topmost occurrences only: skip when an ancestor already
    // carries this phase (re-entrant recursion would double-bill).
    bool nested = false;
    for (std::int32_t a = n.parent; a >= 0;
         a = s.nodes[static_cast<std::size_t>(a)].parent)
      if (s.nodes[static_cast<std::size_t>(a)].phase == n.phase) {
        nested = true;
        break;
      }
    if (!nested) p.total_ns += n.total_ns;
  }
  return s;
}

#endif  // !ARMBAR_PROF_DISABLED

}  // namespace armbar::prof

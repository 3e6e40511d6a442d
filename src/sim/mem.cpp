#include "sim/mem.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "prof/prof.hpp"
#include "sim/fault/fault.hpp"

namespace armbar::sim {

const MemorySystem::Page MemorySystem::kUntouchedPage{};

MemorySystem::MemorySystem(const PlatformSpec& spec, std::size_t mem_bytes)
    : spec_(spec),
      span_bytes_(mem_bytes),
      pages_((mem_bytes + kPageBytes - 1) / kPageBytes),
      home_((mem_bytes + kHomeGranule - 1) / kHomeGranule, 0) {
  ARMBAR_CHECK(spec.total_cores() <= kMaxCores);
  ARMBAR_CHECK(mem_bytes % kCacheLineBytes == 0);
}

void MemorySystem::set_home(Addr base, std::size_t bytes, NodeId node) {
  ARMBAR_CHECK(node < spec_.nodes);
  const std::size_t first = base / kHomeGranule;
  const std::size_t last = (base + bytes + kHomeGranule - 1) / kHomeGranule;
  for (std::size_t g = first; g < last && g < home_.size(); ++g) home_[g] = node;
}

NodeId MemorySystem::home_of(Addr a) const {
  const std::size_t g = a / kHomeGranule;
  return g < home_.size() ? home_[g] : 0;
}

const MemorySystem::Page& MemorySystem::page(Addr a) const {
  ARMBAR_CHECK_MSG(a < span_bytes_, "address out of simulated memory");
  const Page* pg = pages_[a / kPageBytes].get();
  return pg != nullptr ? *pg : kUntouchedPage;
}

MemorySystem::Page& MemorySystem::page_mut(Addr a) {
  ARMBAR_CHECK_MSG(a < span_bytes_, "address out of simulated memory");
  std::unique_ptr<Page>& pg = pages_[a / kPageBytes];
  if (pg == nullptr) {
    pg = std::make_unique<Page>();
    ++resident_pages_;
  }
  return *pg;
}

std::size_t MemorySystem::word_slot(Addr a) {
  ARMBAR_CHECK_MSG(a % kWordBytes == 0, "unaligned 8-byte access");
  return a % kPageBytes / kWordBytes;
}

void MemorySystem::apply_pending(Page& pg, LineState& ls) {
  if (!ls.pending) return;
  pg.words[word_slot(ls.pending_word)] = ls.pending_value;
  ls.owner = ls.pending_owner;
  ls.sharers = ls.pending_keep_sharers;
  ls.pending = false;
}

std::uint64_t MemorySystem::peek(Addr a) const {
  const Page& pg = page(a);
  const LineState& ls = pg.lines[line_slot(a)];
  if (ls.pending && word_of(ls.pending_word) == word_of(a)) return ls.pending_value;
  return pg.words[word_slot(a)];
}

void MemorySystem::poke(Addr a, std::uint64_t v) {
  Page& pg = page_mut(a);
  LineState& ls = pg.lines[line_slot(a)];
  if (ls.pending && word_of(ls.pending_word) == word_of(a)) ls.pending = false;
  pg.words[word_slot(a)] = v;
}

bool MemorySystem::load_hits(CoreId core, Addr a) const {
  const LineState& ls = line_state(a);
  return ls.owner == static_cast<std::int16_t>(core) || (ls.sharers >> core) & 1;
}

bool MemorySystem::owns(CoreId core, Addr a) const {
  return line_state(a).owner == static_cast<std::int16_t>(core);
}

bool MemorySystem::any_remote_holder(CoreId core, Addr a) const {
  const LineState& ls = line_state(a);
  if (ls.owner != kNoOwner && ls.owner != static_cast<std::int16_t>(core)) return true;
  return (ls.sharers & ~(1ULL << core)) != 0;
}

void MemorySystem::notify_holders(const LineState& ls, Addr line, CoreId except,
                                  Cycle at) {
  if (!inv_hook_) return;
  const auto deliver = [&] {
    std::uint64_t mask = ls.sharers & ~(1ULL << except);
    while (mask) {
      const auto victim = static_cast<CoreId>(__builtin_ctzll(mask));
      mask &= mask - 1;
      inv_hook_(victim, line, at);
    }
    if (ls.owner != kNoOwner && ls.owner != static_cast<std::int16_t>(except))
      inv_hook_(static_cast<CoreId>(ls.owner), line, at);
  };
  deliver();
  // Fault hook: real fabrics may echo a snoop; receivers must treat
  // invalidation delivery as idempotent (Core::on_invalidate is).
  if (ARMBAR_FAULT_HIT(fault_, duplicate_invalidate(except))) deliver();
}

void MemorySystem::record_transfer(trace::CohKind kind, Cycle cycles) {
  hist_->coh_transfer.add(cycles);
  if (kind == trace::CohKind::kGetMRemote) hist_->remote_inv.add(cycles);
}

Cycle MemorySystem::load(CoreId core, Addr a, Cycle now, std::uint64_t& value_out,
                         bool exclusive) {
  const Addr line = line_of(a);
  Page& pg = page_mut(line);
  LineState& ls = pg.lines[line_slot(line)];

  if (ls.pending && ls.pending_at <= now) apply_pending(pg, ls);

  // Clean-hit fast path (ISSUE 7): nothing in flight on the line and we hold
  // a valid copy. Owner hits never consult the fault engine (evictions only
  // target clean shared copies); a sharer hit would draw the evict RNG, so it
  // only takes this path when no engine is installed — fault runs keep the
  // exact draw sequence of the full path below. Bypasses the kSimCoherence
  // scope: a hit's work is two loads and an add, smaller than the clock read.
  if (!ls.pending) {
    const bool fast_owner = ls.owner == static_cast<std::int16_t>(core);
    if (fast_owner ||
        (fault_ == nullptr && ((ls.sharers >> core) & 1) != 0)) {
      ++stats_.hits;
      value_out = pg.words[word_slot(a)];
      return now + spec_.lat.cache_hit;
    }
  }

  ARMBAR_PROF_SCOPE(kSimCoherence);

  // Hit — possibly a *stale* hit while another core's store is still in
  // flight (the weakly-ordered window; invalidation lands at pending_at).
  // Exclusive loads may not use the stale window.
  const bool may_hit = !(exclusive && ls.pending);
  const bool owner_hit = ls.owner == static_cast<std::int16_t>(core);
  bool sharer_hit = (ls.sharers >> core) & 1;
  // Fault hook: force-evict a clean shared copy (a capacity eviction the
  // infinite-cache model otherwise never has); the access refetches below.
  // Owned (M/E) lines are never evicted — that would lose dirty data.
  if (may_hit && sharer_hit && !owner_hit &&
      ARMBAR_FAULT_HIT(fault_, evict(core))) {
    ls.sharers &= ~(1ULL << core);
    // An in-flight store must not resurrect the evicted copy when it lands.
    ls.pending_keep_sharers &= ~(1ULL << core);
    sharer_hit = false;
  }
  if (may_hit && (owner_hit || sharer_hit)) {
    ++stats_.hits;
    value_out = pg.words[word_slot(a)];
    return now + spec_.lat.cache_hit;
  }

  // Miss: a GetS transfer, serialized after any in-flight work on the line.
  const Cycle start = std::max(now, ls.busy_until);
  if (ls.pending) {
    ARMBAR_CHECK(ls.pending_at <= start);
    apply_pending(pg, ls);
  }

  const NodeId me = spec_.node_of(core);
  std::uint32_t latency;
  trace::CohKind coh_kind;
  trace::LineCode from_code;
  if (ls.owner != kNoOwner) {
    const NodeId on = spec_.node_of(static_cast<CoreId>(ls.owner));
    const bool cross = on != me;
    latency = cross ? spec_.lat.c2c_remote : spec_.lat.c2c_local;
    cross ? ++stats_.gets_remote : ++stats_.gets_local;
    coh_kind = cross ? trace::CohKind::kGetSRemote : trace::CohKind::kGetSLocal;
    from_code = trace::LineCode::kOwned;
    // Owner downgrades M/E -> S; both now share.
    ls.sharers |= (1ULL << static_cast<CoreId>(ls.owner));
    ls.owner = kNoOwner;
  } else if (ls.sharers != 0) {
    // Clean copies exist: transfer from the nearest sharer
    // (approximated: local if any sharer is on our node).
    const bool local_sharer = [&] {
      std::uint64_t m = ls.sharers;
      while (m) {
        const auto c = static_cast<CoreId>(__builtin_ctzll(m));
        m &= m - 1;
        if (spec_.node_of(c) == me) return true;
      }
      return false;
    }();
    latency = local_sharer ? spec_.lat.c2c_local : spec_.lat.c2c_remote;
    local_sharer ? ++stats_.gets_local : ++stats_.gets_remote;
    coh_kind =
        local_sharer ? trace::CohKind::kGetSLocal : trace::CohKind::kGetSRemote;
    from_code = trace::LineCode::kShared;
  } else {
    const bool local_home = home_of(a) == me;
    latency = local_home ? spec_.lat.mem_local : spec_.lat.mem_remote;
    ++stats_.mem_fills;
    coh_kind = trace::CohKind::kMemFill;
    from_code = trace::LineCode::kInvalid;
  }
  ls.sharers |= (1ULL << core);
  // Fault hook: the transfer's response may arrive late. The occupancy
  // window below stays latency-based — the port frees on schedule, only
  // this requester waits longer.
  const Cycle done = start + latency + ARMBAR_FAULT_CYCLES(fault_, coh_delay(core));
  ARMBAR_TRACE(tracer_, coh_transfer(core, line, coh_kind, start, done));
  ARMBAR_TRACE(tracer_, line_transition(core, line, from_code,
                                        trace::LineCode::kShared, done));
  if (hist_ != nullptr) record_transfer(coh_kind, done - start);
  // Read transfers pipeline: the line's service port frees after the
  // occupancy window even though this requester waits the full latency.
  ls.busy_until = start + std::min<Cycle>(latency, spec_.lat.read_occupancy);
  value_out = pg.words[word_slot(a)];
  return done;
}

Cycle MemorySystem::exchange(CoreId core, Addr a, std::uint64_t v, Cycle now,
                             std::uint64_t& old_out, bool& remote_snoop_out) {
  // The pre-store value as of this access's serialization point: any
  // pending store on the line is ordered before us, so its value is what
  // we exchange against.
  old_out = peek(a);
  return store(core, a, v, now, remote_snoop_out);
}

Cycle MemorySystem::store(CoreId core, Addr a, std::uint64_t v, Cycle now,
                          bool& remote_snoop_out) {
  const Addr line = line_of(a);
  Page& pg = page_mut(line);
  LineState& ls = pg.lines[line_slot(line)];
  const auto self = static_cast<std::int16_t>(core);
  remote_snoop_out = false;

  if (ls.pending && ls.pending_at <= now) apply_pending(pg, ls);

  // Owned-drain fast path (ISSUE 7), hoisted above the kSimCoherence scope:
  // already own the line in M/E and nothing in flight — cheap drain, visible
  // after owned_drain. No fault or trace hooks fire on this branch, so
  // skipping the scope changes only host profiling, never simulated state.
  if (ls.owner == self && !ls.pending) {
    ++stats_.hits;
    const Cycle done = now + spec_.lat.owned_drain;
    ls.pending = true;
    ls.pending_word = word_of(a);
    ls.pending_value = v;
    ls.pending_at = done;
    ls.pending_owner = self;
    ls.pending_keep_sharers = ls.sharers;
    ls.busy_until = std::max(ls.busy_until, done);
    return done;
  }

  ARMBAR_PROF_SCOPE(kSimCoherence);
  const Cycle start = std::max(now, ls.busy_until);
  if (ls.pending) {
    ARMBAR_CHECK(ls.pending_at <= start);
    apply_pending(pg, ls);
  }

  const NodeId me = spec_.node_of(core);
  std::uint32_t latency;
  bool cross = false;
  bool transfer = false;
  trace::CohKind coh_kind = trace::CohKind::kMemFill;
  trace::LineCode from_code = trace::LineCode::kInvalid;
  if (ls.owner == self) {
    // Chained drain behind our own in-flight store on the same line.
    latency = spec_.lat.owned_drain;
    ++stats_.hits;
  } else {
    // Does the transfer involve any holder outside our node?
    {
      std::uint64_t m = ls.sharers & ~(1ULL << core);
      while (m) {
        const auto c = static_cast<CoreId>(__builtin_ctzll(m));
        m &= m - 1;
        if (spec_.node_of(c) != me) cross = true;
      }
      if (ls.owner != kNoOwner && spec_.node_of(static_cast<CoreId>(ls.owner)) != me)
        cross = true;
    }
    const bool other_holder =
        ls.owner != kNoOwner || (ls.sharers & ~(1ULL << core)) != 0;
    if (other_holder) {
      latency = cross ? spec_.lat.inv_remote : spec_.lat.inv_local;
      cross ? ++stats_.getm_remote : ++stats_.getm_local;
      if ((ls.sharers >> core) & 1) ++stats_.upgrades;
      coh_kind =
          cross ? trace::CohKind::kGetMRemote : trace::CohKind::kGetMLocal;
      from_code = ls.owner != kNoOwner ? trace::LineCode::kOwned
                                       : trace::LineCode::kShared;
      transfer = true;
    } else if ((ls.sharers >> core) & 1) {
      // Sole sharer upgrading S -> M.
      latency = spec_.lat.owned_drain;
      ++stats_.upgrades;
      coh_kind = trace::CohKind::kUpgrade;
      from_code = trace::LineCode::kShared;
      transfer = true;
    } else {
      const bool local_home = home_of(a) == me;
      latency = local_home ? spec_.lat.mem_local : spec_.lat.mem_remote;
      ++stats_.mem_fills;
      coh_kind = trace::CohKind::kMemFill;
      from_code = trace::LineCode::kInvalid;
      transfer = true;
    }
  }

  Cycle done = start + latency;
  // Fault hook: only real transfers can be delayed; chained owned drains
  // never leave the core's cache.
  if (transfer) done += ARMBAR_FAULT_CYCLES(fault_, coh_delay(core));
  if (transfer) {
    ARMBAR_TRACE(tracer_, coh_transfer(core, line, coh_kind, start, done));
    ARMBAR_TRACE(tracer_, line_transition(core, line, from_code,
                                          trace::LineCode::kOwned, done));
    if (hist_ != nullptr) record_transfer(coh_kind, done - start);
  }
  // Victims learn about the invalidation now but it lands at `done`;
  // until then their stale S copies keep satisfying loads.
  notify_holders(ls, line, core, done);
  ls.pending = true;
  ls.pending_word = word_of(a);
  ls.pending_value = v;
  ls.pending_at = done;
  ls.pending_owner = self;
  ls.pending_keep_sharers = 0;
  ls.busy_until = done;
  remote_snoop_out = cross;
  return done;
}

}  // namespace armbar::sim

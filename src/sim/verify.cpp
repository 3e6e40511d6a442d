#include "sim/verify.hpp"

#include <bit>
#include <sstream>

#include "sim/machine.hpp"

namespace armbar::sim {

namespace {
Cycle g_verify_every = 0;

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string cycle_str(Cycle c) {
  return c == kNeverCycle ? std::string("never") : std::to_string(c);
}

/// One line's coherence invariants; "" when they hold.
std::string check_line(const LineState& ls, Addr line, std::uint32_t total) {
  // Most lines, even on a resident page, are idle; skip them fast.
  if (ls.owner == kNoOwner && ls.sharers == 0 && !ls.pending) return {};
  const std::uint64_t core_mask =
      total >= 64 ? ~0ULL : ((1ULL << total) - 1);
  const std::string where = "line " + hex(line) + ": ";
  if ((ls.sharers & ~core_mask) != 0)
    return where + "sharer mask " + hex(ls.sharers) + " names cores >= " +
           std::to_string(total);
  if (ls.owner != kNoOwner) {
    if (ls.owner < 0 || static_cast<std::uint32_t>(ls.owner) >= total)
      return where + "owner " + std::to_string(ls.owner) + " out of range";
    // Single-writer: an owned (M/E) line may not coexist with foreign
    // shared copies (the owner's own bit is tolerated).
    if ((ls.sharers & ~(1ULL << ls.owner)) != 0)
      return where + "owner " + std::to_string(ls.owner) +
             " coexists with foreign sharers (mask " + hex(ls.sharers) + ")";
  }
  if (ls.pending) {
    if (ls.pending_owner < 0 ||
        static_cast<std::uint32_t>(ls.pending_owner) >= total)
      return where + "pending store with invalid writer " +
             std::to_string(ls.pending_owner);
    if (ls.busy_until < ls.pending_at)
      return where + "pending store lands at " +
             std::to_string(ls.pending_at) + " after busy_until " +
             std::to_string(ls.busy_until);
    if ((ls.pending_keep_sharers & ~ls.sharers) != 0)
      return where + "pending keep-sharers " + hex(ls.pending_keep_sharers) +
             " not a subset of sharers " + hex(ls.sharers);
  }
  return {};
}
}  // namespace

void set_global_verify_every(Cycle every) { g_verify_every = every; }
Cycle global_verify_every() { return g_verify_every; }

SimError::SimError(SimDiagnostic d)
    : std::runtime_error(d.kind + ": " + d.summary), diag_(std::move(d)) {}

std::string SimDiagnostic::str() const {
  std::ostringstream os;
  os << kind << " at cycle " << cycle << ": " << summary << "\n";
  for (const auto& c : cores) os << "  " << c << "\n";
  if (!recent_events.empty()) {
    os << "  recent events (oldest first):\n";
    for (const auto& e : recent_events) os << "    " << e << "\n";
  }
  return os.str();
}

trace::Json SimDiagnostic::to_json() const {
  auto j = trace::Json::object();
  j.set("kind", kind);
  j.set("summary", summary);
  j.set("cycle", static_cast<std::uint64_t>(cycle));
  auto cs = trace::Json::array();
  for (const auto& c : cores) cs.push(c);
  j.set("cores", std::move(cs));
  auto ev = trace::Json::array();
  for (const auto& e : recent_events) ev.push(e);
  j.set("recent_events", std::move(ev));
  return j;
}

bool SimDiagnostic::from_json(const trace::Json& j, SimDiagnostic* out) {
  if (!j.is_object()) return false;
  const trace::Json* kind = j.find("kind");
  const trace::Json* summary = j.find("summary");
  const trace::Json* cycle = j.find("cycle");
  const trace::Json* cores = j.find("cores");
  const trace::Json* events = j.find("recent_events");
  if (!kind || !kind->is_string() || !summary || !summary->is_string() ||
      !cycle || !cycle->is_number() || !cores || !cores->is_array() ||
      !events || !events->is_array())
    return false;
  SimDiagnostic d;
  d.kind = kind->str();
  d.summary = summary->str();
  d.cycle = static_cast<Cycle>(cycle->number());
  for (const trace::Json& c : cores->items()) {
    if (!c.is_string()) return false;
    d.cores.push_back(c.str());
  }
  for (const trace::Json& e : events->items()) {
    if (!e.is_string()) return false;
    d.recent_events.push_back(e.str());
  }
  *out = std::move(d);
  return true;
}

std::string MachineVerifier::check_lines() const {
  const MemorySystem& mem = *m_.mem_;
  const std::uint32_t total = m_.spec_.total_cores();
  // Untouched pages hold only idle default lines. Resident pages are walked
  // in address order, so the first violation reported is the lowest line.
  for (std::size_t p = 0; p < mem.pages_.size(); ++p) {
    if (mem.pages_[p] == nullptr) continue;
    Addr line = p * MemorySystem::kPageBytes;
    for (const LineState& ls : mem.pages_[p]->lines) {
      if (std::string v = check_line(ls, line, total); !v.empty()) return v;
      line += kCacheLineBytes;
    }
  }
  return {};
}

std::string MachineVerifier::check_core(const Core& core, Cycle now) const {
  const std::string where = "core " + std::to_string(core.id_) + ": ";

  // Pump gate: a clean buffer's cached event horizon, while still ahead of
  // the sweep, is what a rescan reports. A stale one means a buffer change
  // missed its dirty mark, and the pump would sleep through an event.
  if (!core.sb_dirty_ && core.sb_horizon_ > now) {
    if (const Cycle actual = core.earliest_sb_event(now);
        actual != core.sb_horizon_)
      return where + "cached store-buffer horizon " +
             std::to_string(core.sb_horizon_) + " but the next event is at " +
             cycle_str(actual);
  }

  // Store-buffer order: seqs strictly increase in buffer order, and a drain
  // never overtakes an older same-word entry (per-address program order).
  std::uint64_t prev_seq = 0;
  for (const auto& e : core.sb_) {
    if (e.seq <= prev_seq && prev_seq != 0)
      return where + "store buffer seq out of order (" + std::to_string(e.seq) +
             " after " + std::to_string(prev_seq) + ")";
    prev_seq = e.seq;
    if (!e.draining) continue;
    for (const auto& o : core.sb_) {
      if (o.seq >= e.seq) break;
      if (!o.draining && word_of(o.addr) == word_of(e.addr))
        return where + "entry seq " + std::to_string(e.seq) +
               " draining past older same-word entry seq " +
               std::to_string(o.seq) + " (addr " + hex(e.addr) + ")";
    }
  }

  // Speculation order: branch ids strictly increase and every pending
  // branch is younger than the committed watermark.
  std::uint64_t prev_idx = 0;
  for (const auto& br : core.branches_) {
    if (br.idx <= prev_idx && prev_idx != 0)
      return where + "branch ids out of order (" + std::to_string(br.idx) +
             " after " + std::to_string(prev_idx) + ")";
    prev_idx = br.idx;
    if (br.idx <= core.committed_branch_)
      return where + "pending branch " + std::to_string(br.idx) +
             " not younger than committed watermark " +
             std::to_string(core.committed_branch_);
  }

  // Barrier-response accounting: an active watch expects exactly the drains
  // still buffered below its epoch.
  for (const auto& w : core.watches_) {
    if (!w.active) continue;
    std::uint32_t below = 0;
    for (const auto& e : core.sb_)
      if (e.seq < w.epoch) ++below;
    if (below != w.pending)
      return where + "barrier watch (epoch " + std::to_string(w.epoch) +
             ") expects " + std::to_string(w.pending) +
             " pending drains, buffer holds " + std::to_string(below);
  }
  return {};
}

std::string MachineVerifier::check_sched() const {
  const AttentionQueue& q = m_.sched_;
  // The wheel each lane should hold: every core whose slot is in the window.
  std::uint64_t want[AttentionQueue::kLanes] = {};
  for (CoreId c = 0; c < m_.num_cores(); ++c) {
    const Cycle slot = q.at(c);
    // A core without a program keeps next_attention() 0 and is never set.
    if (const Cycle na = m_.cores_[c]->next_attention();
        m_.active_[c] && slot != na)
      return "core " + std::to_string(c) + ": scheduler slot " +
             cycle_str(slot) + " but next attention " + cycle_str(na);
    if (q.in_window(slot))
      want[slot % AttentionQueue::kLanes] |= std::uint64_t{1} << c;
  }
  for (std::uint32_t i = 0; i < AttentionQueue::kLanes; ++i) {
    if (const std::uint64_t wrong = q.lane(i) ^ want[i]; wrong != 0) {
      const auto c = static_cast<CoreId>(std::countr_zero(wrong));
      const Cycle lo = q.window_lo();
      return "core " + std::to_string(c) + ": " +
             ((q.lane(i) >> c & 1) != 0 ? "in" : "missing from") +
             " scheduler wheel lane " + std::to_string(i) + " (window [" +
             std::to_string(lo) + ", " +
             std::to_string(lo + AttentionQueue::kWindow) +
             ")) with scheduler slot " + cycle_str(q.at(c));
    }
    if (((q.occupied() >> i & 1) != 0) != (q.lane(i) != 0))
      return "scheduler wheel lane " + std::to_string(i) + " holds " +
             hex(q.lane(i)) + " but its occupancy bit is " +
             std::to_string(q.occupied() >> i & 1);
  }
  return {};
}

std::string MachineVerifier::check(Cycle now) const {
  if (std::string v = check_lines(); !v.empty()) return v;
  for (const auto& core : m_.cores_)
    if (std::string v = check_core(*core, now); !v.empty()) return v;
  return check_sched();
}

SimDiagnostic MachineVerifier::diagnose(std::string kind, std::string summary,
                                        Cycle now) const {
  SimDiagnostic d;
  d.kind = std::move(kind);
  d.summary = std::move(summary);
  d.cycle = now;
  for (CoreId c = 0; c < m_.num_cores(); ++c) {
    if (!m_.active_[c]) continue;
    const Core& core = *m_.cores_[c];
    std::size_t draining = 0;
    for (const auto& e : core.sb_)
      if (e.draining) ++draining;
    std::ostringstream os;
    os << "core " << c << ": pc=" << core.pc_
       << (core.halted_ ? " halted" : "") << (core.parked_ ? " parked" : "")
       << " sb=" << core.sb_.size() << "(draining " << draining << ")"
       << " branches=" << core.branches_.size()
       << " stall=" << to_string(core.stall_cause_)
       << " until=" << core.stall_until_
       << (core.barrier_ ? " barrier_pending" : "")
       << " instrs=" << core.stats_.instructions
       << " sb_retired=" << core.stats_.sb_retired
       << " next_attention=" << core.next_attention_;
    d.cores.push_back(os.str());
  }
  if (m_.tracer_ != nullptr) {
    constexpr std::size_t kTail = 32;
    const auto events = m_.tracer_->snapshot();
    const std::size_t first = events.size() > kTail ? events.size() - kTail : 0;
    for (std::size_t i = first; i < events.size(); ++i) {
      const trace::Event& e = events[i];
      std::ostringstream os;
      os << "[" << e.begin << "," << e.end << ") core " << e.core << " "
         << trace::to_string(e.kind) << " pc=" << e.pc << " a=" << hex(e.a)
         << " b=" << hex(e.b) << " detail=" << static_cast<int>(e.detail);
      d.recent_events.push_back(os.str());
    }
  }
  return d;
}

}  // namespace armbar::sim

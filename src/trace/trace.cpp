#include "trace/trace.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "prof/prof.hpp"

namespace armbar::trace {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kInstrIssue: return "instr.issue";
    case EventKind::kStall: return "stall";
    case EventKind::kSquash: return "squash";
    case EventKind::kSbEnqueue: return "sb.enqueue";
    case EventKind::kSbDrainStart: return "sb.drain";
    case EventKind::kSbDrainRetire: return "sb.retire";
    case EventKind::kCohTransfer: return "coh.transfer";
    case EventKind::kLineTransition: return "coh.line";
    case EventKind::kBarrierIssue: return "barrier.issue";
    case EventKind::kBarrierTxn: return "barrier.txn";
    case EventKind::kBarrierComplete: return "barrier.block";
    case EventKind::kStoreGateArm: return "store_gate.arm";
    case EventKind::kStoreGateOpen: return "store_gate.open";
    case EventKind::kCount: break;
  }
  return "?";
}

const char* to_string(CohKind k) {
  switch (k) {
    case CohKind::kGetSLocal: return "GetS(local)";
    case CohKind::kGetSRemote: return "GetS(remote)";
    case CohKind::kGetMLocal: return "GetM(local)";
    case CohKind::kGetMRemote: return "GetM(remote)";
    case CohKind::kUpgrade: return "Upgrade";
    case CohKind::kMemFill: return "MemFill";
    case CohKind::kCount: break;
  }
  return "?";
}

const char* to_string(LineCode c) {
  switch (c) {
    case LineCode::kInvalid: return "I";
    case LineCode::kShared: return "S";
    case LineCode::kOwned: return "M";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : ring_(std::max<std::size_t>(capacity, 1)) {}

std::size_t Tracer::size() const {
  return emitted_ < ring_.size() ? static_cast<std::size_t>(emitted_) : ring_.size();
}

std::uint64_t Tracer::dropped() const {
  return emitted_ < ring_.size() ? 0 : emitted_ - ring_.size();
}

std::vector<Event> Tracer::snapshot() const {
  std::vector<Event> out;
  const std::size_t n = size();
  out.reserve(n);
  // head_ is the next write slot; the oldest surviving event sits at head_
  // once the ring has wrapped, else at 0.
  const std::size_t start = emitted_ < ring_.size() ? 0 : head_;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

void Tracer::clear() {
  head_ = 0;
  emitted_ = 0;
}

void Tracer::emit(const Event& e) {
  if (!enabled_) return;
  // The observer observing itself: how much host time the guest-side
  // tracer costs. After the enabled_ check so untraced runs pay nothing.
  ARMBAR_PROF_SCOPE(kTraceEmit);
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
  ++emitted_;
}

void Tracer::instr_issue(CoreId c, std::uint32_t pc, std::uint8_t op, Cycle at) {
  if (!enabled_) return;
  emit({at, at, 0, 0, pc, c, EventKind::kInstrIssue, op});
}

void Tracer::set_stall_cause_names(std::vector<std::string> names) {
  stall_cause_names_ = std::move(names);
}

std::string Tracer::stall_cause_name(std::uint8_t cause) const {
  if (cause < stall_cause_names_.size()) return stall_cause_names_[cause];
  return std::to_string(cause);
}

void Tracer::stall(CoreId c, std::uint32_t pc, std::uint8_t cause, Cycle from,
                   Cycle to) {
  if (!enabled_ || to <= from) return;
  emit({from, to, 0, 0, pc, c, EventKind::kStall, cause});
}

void Tracer::squash(CoreId c, std::uint32_t pc, Cycle at) {
  if (!enabled_) return;
  emit({at, at, 0, 0, pc, c, EventKind::kSquash, 0});
}

void Tracer::sb_enqueue(CoreId c, std::uint64_t seq, Addr addr, Cycle at) {
  if (!enabled_) return;
  emit({at, at, seq, addr, 0, c, EventKind::kSbEnqueue, 0});
}

void Tracer::sb_drain_start(CoreId c, std::uint64_t seq, Addr addr, Cycle from,
                            Cycle to) {
  if (!enabled_) return;
  emit({from, to, seq, addr, 0, c, EventKind::kSbDrainStart, 0});
}

void Tracer::sb_drain_retire(CoreId c, std::uint64_t seq, Cycle enqueued,
                             Cycle done) {
  if (!enabled_) return;
  const Cycle residency = done >= enqueued ? done - enqueued : 0;
  emit({done, done, seq, residency, 0, c, EventKind::kSbDrainRetire, 0});
}

void Tracer::coh_transfer(CoreId c, Addr line, CohKind kind, Cycle from, Cycle to) {
  if (!enabled_) return;
  emit({from, to, line, to - from, 0, c, EventKind::kCohTransfer,
        static_cast<std::uint8_t>(kind)});
}

void Tracer::line_transition(CoreId c, Addr line, LineCode from, LineCode to,
                             Cycle at) {
  if (!enabled_) return;
  const auto packed = static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(from) << 4) | static_cast<std::uint8_t>(to));
  emit({at, at, line, 0, 0, c, EventKind::kLineTransition, packed});
}

void Tracer::barrier_issue(CoreId c, std::uint32_t pc, std::uint8_t op, Cycle at) {
  if (!enabled_) return;
  emit({at, at, 0, 0, pc, c, EventKind::kBarrierIssue, op});
}

void Tracer::barrier_txn(CoreId c, std::uint8_t op, Cycle from, Cycle to) {
  if (!enabled_) return;
  emit({from, to, 0, to - from, 0, c, EventKind::kBarrierTxn, op});
}

void Tracer::barrier_complete(CoreId c, std::uint32_t pc, std::uint8_t op,
                              Cycle issue, Cycle done) {
  if (!enabled_) return;
  emit({issue, done, 0, done - issue, pc, c, EventKind::kBarrierComplete, op});
}

void Tracer::store_gate_arm(CoreId c, std::uint32_t pc, Cycle at) {
  if (!enabled_) return;
  emit({at, at, 0, 0, pc, c, EventKind::kStoreGateArm, 0});
}

void Tracer::store_gate_open(CoreId c, Cycle at) {
  if (!enabled_) return;
  emit({at, at, 0, 0, 0, c, EventKind::kStoreGateOpen, 0});
}

}  // namespace armbar::trace

#include "sim/core.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "prof/prof.hpp"
#include "sim/fault/fault.hpp"

namespace armbar::sim {

namespace {
constexpr Cycle cyc_min(Cycle a, Cycle b) { return a < b ? a : b; }
constexpr Cycle cyc_max(Cycle a, Cycle b) { return a > b ? a : b; }

constexpr std::uint8_t code(StallCause c) { return static_cast<std::uint8_t>(c); }
constexpr std::uint8_t code(Op op) { return static_cast<std::uint8_t>(op); }
}  // namespace

const char* to_string(StallCause c) {
  switch (c) {
    case StallCause::kNone: return "none";
    case StallCause::kOperand: return "operand";
    case StallCause::kBarrier: return "barrier";
    case StallCause::kStoreGate: return "store_gate";
    case StallCause::kMemGate: return "mem_gate";
    case StallCause::kSbFull: return "sb_full";
    case StallCause::kLqFull: return "lq_full";
    case StallCause::kSpec: return "spec";
    case StallCause::kSquash: return "squash";
    case StallCause::kParked: return "parked";
    case StallCause::kCount: break;
  }
  return "?";
}

std::vector<std::string> stall_cause_names() {
  std::vector<std::string> names;
  for (int c = 0; c < static_cast<int>(StallCause::kCount); ++c)
    names.emplace_back(to_string(static_cast<StallCause>(c)));
  return names;
}

Core::Core(CoreId id, const PlatformSpec& spec, MemorySystem& mem)
    : id_(id), spec_(spec), lat_(spec.lat), mem_(mem) {}

void Core::load_program(ProgramHandle prog) {
  ARMBAR_CHECK(prog != nullptr && prog->size() > 0);
  prog_ = std::move(prog);
  uops_ = prog_->uops();
  prog_size_ = prog_->size();
  pc_ = 0;
  halted_ = false;
  next_attention_ = 0;
}

void Core::set_reg(Reg r, std::uint64_t v) {
  if (r == XZR) return;
  regs_[r] = v;
  ready_[r] = 0;
}

void Core::write(Reg r, std::uint64_t v, Cycle ready_at) {
  if (r == XZR) return;
  regs_[r] = v;
  ready_[r] = ready_at;
}

void Core::stall(Cycle now, Cycle until, StallCause cause) {
  if (until > now) {
    stats_.stall_cycles[static_cast<int>(cause)] += until - now;
    // The trace mirrors the accounting exactly: summing a core's kBarrier
    // stall spans reproduces stats().stall_cycles[kBarrier] (the
    // trace_explorer acceptance check relies on this).
    ARMBAR_TRACE(tracer_, stall(id_, pc_, code(cause), now, until));
  }
  stall_until_ = cyc_max(stall_until_, until);
  stall_cause_ = cause;
}

bool Core::sb_has_older_same_word(std::uint64_t seq, Addr word) const {
  for (const auto& e : sb_) {
    if (e.seq >= seq) break;
    if (word_of(e.addr) == word) return true;
  }
  return false;
}

void Core::retire_drain(const SbEntry& e) {
  for (auto& w : watches_) {
    if (!w.active || e.seq >= w.epoch) continue;
    ARMBAR_CHECK(w.pending > 0);
    --w.pending;
    w.max_done = cyc_max(w.max_done, e.drain_done);
    w.remote = w.remote || e.remote_snoop;
  }
}

int Core::alloc_watch(Cycle now) {
  int idx = -1;
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    if (!watches_[i].active) {
      idx = static_cast<int>(i);
      break;
    }
  }
  if (idx < 0) {
    watches_.emplace_back();
    idx = static_cast<int>(watches_.size() - 1);
  }
  SbWatch& w = watches_[idx];
  w.active = true;
  w.epoch = sb_next_seq_;
  w.pending = static_cast<std::uint32_t>(sb_.size());
  w.max_done = now;
  w.remote = false;
  return idx;
}

void Core::pump_store_buffer(Cycle now) {
  // Retire finished drains (completion order, not program order: the
  // buffer is non-FIFO). Single compaction pass, preserving buffer order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < sb_.size(); ++i) {
    SbEntry& e = sb_[i];
    if (e.draining && e.drain_done <= now) {
      retire_drain(e);
      ARMBAR_TRACE(tracer_,
                   sb_drain_retire(id_, e.seq, e.enqueued_at, e.drain_done));
      if (hist_ != nullptr)
        hist_->sb_residency.add(e.drain_done - e.enqueued_at);
      ++stats_.sb_retired;
    } else {
      if (kept != i) sb_[kept] = e;
      ++kept;
    }
  }
  sb_.resize(kept);

  std::uint32_t inflight = 0;
  for (const auto& e : sb_)
    if (e.draining) ++inflight;

  const std::uint32_t mshrs = tso_ ? 1 : lat_.sb_mshrs;
  for (auto& e : sb_) {
    if (inflight >= mshrs) break;
    if (e.draining) continue;
    if (tso_ && &e != &sb_.front()) break;  // TSO: strict FIFO drain
    if (e.value_ready > now) continue;      // data dependency
    if (e.drain_at > now) continue;         // still sitting in the buffer
    if (e.gate_branch > committed_branch_) continue;  // control dependency
    if (sb_has_older_same_word(e.seq, word_of(e.addr))) continue;
    if (e.release) {
      // STLR drains only once every older store has drained and every
      // prior load has completed; then it pays the global-visibility ack.
      if (&e != &sb_.front()) continue;
      if (e.release_loads > now) continue;
    }
    // Fault hook: a drain that was about to start may be postponed (the
    // entry sits in the buffer longer — always architecturally legal).
    if (const Cycle stall_f = ARMBAR_FAULT_CYCLES(fault_, sb_stall(id_));
        stall_f != 0) {
      e.drain_at = now + stall_f;
      continue;
    }
    bool remote = false;
    Cycle done = mem_.store(id_, e.addr, e.value, now, remote);
    if (e.release) done += lat_.stlr_extra;
    e.draining = true;
    e.drain_done = done;
    e.remote_snoop = remote;
    ARMBAR_TRACE(tracer_, sb_drain_start(id_, e.seq, e.addr, now, done));
    ++inflight;
  }

  // Resolve a pending DMB st gate once its watched stores have drained.
  if (store_gate_armed_ && store_gate_watch_ >= 0) {
    SbWatch& w = watches_[store_gate_watch_];
    if (w.pending == 0) {
      const std::uint32_t txn =
          spec_.mca ? lat_.barrier_base
                    : (w.remote ? lat_.bus_mem_cross : lat_.bus_mem_local);
      store_gate_ready_ =
          w.max_done + txn + ARMBAR_FAULT_CYCLES(fault_, barrier_spike(id_));
      ARMBAR_TRACE(tracer_,
                   barrier_txn(id_, code(Op::kDmbSt), w.max_done, store_gate_ready_));
      if (hist_ != nullptr)
        hist_->barrier_txn.add(store_gate_ready_ - w.max_done);
      ARMBAR_TRACE(tracer_, store_gate_open(id_, store_gate_ready_));
      w.active = false;
      store_gate_watch_ = -1;
    }
  }
  sb_horizon_ = earliest_sb_event(now);
  sb_dirty_ = false;
}

Cycle Core::earliest_sb_event(Cycle now) const {
  Cycle t = kNeverCycle;
  for (const auto& e : sb_) {
    if (e.draining) {
      t = cyc_min(t, e.drain_done);
    } else {
      if (e.value_ready > now) t = cyc_min(t, e.value_ready);
      if (e.drain_at > now) t = cyc_min(t, e.drain_at);
      if (e.release && e.release_loads > now) t = cyc_min(t, e.release_loads);
    }
  }
  return t;
}

void Core::squash(const PendingBranch& br, Cycle now) {
  std::copy(std::begin(br.regs), std::end(br.regs), std::begin(regs_));
  std::copy(std::begin(br.ready), std::end(br.ready), std::begin(ready_));
  flags_ = br.flags;
  flags_ready_ = br.flags_ready;
  loads_done_at_ = br.loads_done;
  sb_dirty_ = sb_dirty_ || !sb_.empty();
  while (!sb_.empty() && sb_.back().seq >= br.sb_seq) {
    ARMBAR_CHECK_MSG(!sb_.back().draining, "speculative store drained");
    sb_.pop_back();
  }
  branches_.clear();
  committed_branch_ = br.idx;
  pc_ = br.actual_pc;
  ++stats_.squashes;
  ARMBAR_TRACE(tracer_, squash(id_, pc_, now));
  stall(now, now + lat_.pipeline_flush, StallCause::kSquash);
}

void Core::resolve_branches(Cycle now) {
  while (!branches_.empty() && branches_.front().resolve_at <= now) {
    PendingBranch br = branches_.front();
    if (br.actual_pc == br.predicted_pc) {
      branches_.erase(branches_.begin());
      committed_branch_ = br.idx;
      // The commit may ungate buffered stores: no SB event reports that.
      sb_dirty_ = sb_dirty_ || !sb_.empty();
    } else {
      squash(br, now);
      return;
    }
  }
}

bool Core::check_blocking_barrier(Cycle now) {
  BlockingBarrier& b = *barrier_;
  Cycle done_at = cyc_max(b.issue, b.loads_done);
  bool remote = false;
  if (b.watch >= 0) {
    SbWatch& w = watches_[b.watch];
    if (w.pending > 0) return false;
    done_at = cyc_max(done_at, w.max_done);
    remote = w.remote;
    w.active = false;
  }

  std::uint32_t extra = lat_.barrier_base;
  switch (b.kind) {
    case Op::kDmbLd:
      extra = lat_.barrier_base;
      break;
    case Op::kDmbFull:
      extra = (!b.had_stores || spec_.mca)
                  ? lat_.barrier_base
                  : (remote ? lat_.bus_mem_cross : lat_.bus_mem_local);
      break;
    case Op::kDsbFull:
    case Op::kDsbSt:
    case Op::kDsbLd:
      // Synchronization barrier transactions always travel to the inner
      // domain boundary — no locality benefit (Observation 5).
      extra = lat_.bus_sync;
      break;
    default:
      ARMBAR_CHECK(false);
  }
  // Fault hook: the ACE barrier transaction's round trip may be spiked.
  const Cycle complete =
      done_at + extra + ARMBAR_FAULT_CYCLES(fault_, barrier_spike(id_));
  // The cycles spent waiting for the watched drains ([block_from, now))
  // were not chargeable anywhere while the watch was pending; attribute
  // them to the barrier now. stall() below covers [now, complete).
  if (now > b.block_from) {
    stats_.stall_cycles[static_cast<int>(StallCause::kBarrier)] += now - b.block_from;
    ARMBAR_TRACE(tracer_,
                 stall(id_, b.pc, code(StallCause::kBarrier), b.block_from, now));
  }
  ARMBAR_TRACE(tracer_, barrier_txn(id_, code(b.kind), done_at, complete));
  ARMBAR_TRACE(tracer_, barrier_complete(id_, b.pc, code(b.kind),
                                         cyc_min(b.block_from, now), complete));
  if (hist_ != nullptr) {
    hist_->barrier_txn.add(complete - done_at);
    hist_->barrier_complete.add(complete - cyc_min(b.block_from, now));
  }
  barrier_.reset();
  stall(now, complete, StallCause::kBarrier);
  return true;
}

Cycle Core::do_load(const MicroOp& u, Cycle now, Addr addr) {
  // Store-buffer forwarding: youngest same-word entry wins.
  for (auto it = sb_.rbegin(); it != sb_.rend(); ++it) {
    if (word_of(it->addr) == word_of(addr)) {
      const Cycle done = cyc_max(now + lat_.sb_hit, it->value_ready);
      write(u.rd, it->value, done);
      return done;
    }
  }
  std::uint64_t value = 0;
  Cycle done = mem_.load(id_, addr, now, value,
                         /*exclusive=*/(u.flags & kUopExcl) != 0);
  if (done - now > lat_.cache_hit) ++stats_.load_misses;
  if (tso_) {
    // TSO: loads become visible in program order.
    done = cyc_max(done, tso_last_load_done_);
    tso_last_load_done_ = done;
  }
  write(u.rd, value, done);
  return done;
}

void Core::issue(Cycle now) {
  ARMBAR_CHECK(uops_ != nullptr && pc_ < prog_size_);
  const std::uint32_t ins_pc = pc_;
  const MicroOp& u = uops_[pc_];

  // Barriers, exclusives, WFE and HALT never execute speculatively
  // (predecoded into kUopNonspec).
  if ((u.flags & kUopNonspec) != 0 && !branches_.empty()) {
    stall(now, branches_.front().resolve_at, StallCause::kSpec);
    return;
  }
  // Operand readiness: the gating registers were resolved at decode time,
  // so one max over two ready-cycles replaces the per-op switch.
  if (const Cycle need = cyc_max(reg_ready(static_cast<Reg>(u.src1)),
                                 reg_ready(static_cast<Reg>(u.src2)));
      need > now) {
    stall(now, need, StallCause::kOperand);
    return;
  }

  switch (u.cls) {
    case OpClass::kNop: {
      // A NOP run retires in one issue, exactly as per-cycle issue would:
      // the O(1) case of a core-local run (see run_ahead()), stopping short
      // of the event horizon. A dirty buffer has no valid horizon (the next
      // step must pump), and a tracer gets one issue per step so its ring is
      // written in emission order.
      Cycle run = 1;
      if (u.nop_run > 1 && tracer_ == nullptr && !sb_dirty_) {
        const Cycle horizon = event_horizon();
        if (horizon > now + 1) run = cyc_min(u.nop_run, horizon - now);
      }
      pc_ += static_cast<std::uint32_t>(run);
      stats_.instructions += run - 1;  // the common tail below counts one
      last_step_ = now + run - 1;
      break;
    }

    case OpClass::kHalt:
      halted_ = true;
      stats_.halted_at = now;
      break;

    case OpClass::kWfe:
      if (event_pending_) {
        event_pending_ = false;
      } else {
        parked_ = true;
        park_wake_ = now + lat_.wfe_timeout;
        ++stats_.wfe_parks;
      }
      ++pc_;
      break;

    case OpClass::kAlu:
      switch (u.op) {
        case Op::kMovImm: write(u.rd, static_cast<std::uint64_t>(u.imm), now + lat_.alu); break;
        case Op::kMov: write(u.rd, read(u.rn), now + lat_.alu); break;
        case Op::kAdd: write(u.rd, read(u.rn) + read(u.rm), now + lat_.alu); break;
        case Op::kAddImm: write(u.rd, read(u.rn) + static_cast<std::uint64_t>(u.imm), now + lat_.alu); break;
        case Op::kSub: write(u.rd, read(u.rn) - read(u.rm), now + lat_.alu); break;
        case Op::kSubImm: write(u.rd, read(u.rn) - static_cast<std::uint64_t>(u.imm), now + lat_.alu); break;
        case Op::kAnd: write(u.rd, read(u.rn) & read(u.rm), now + lat_.alu); break;
        case Op::kAndImm: write(u.rd, read(u.rn) & static_cast<std::uint64_t>(u.imm), now + lat_.alu); break;
        case Op::kOrr: write(u.rd, read(u.rn) | read(u.rm), now + lat_.alu); break;
        case Op::kOrrImm: write(u.rd, read(u.rn) | static_cast<std::uint64_t>(u.imm), now + lat_.alu); break;
        case Op::kEor: write(u.rd, read(u.rn) ^ read(u.rm), now + lat_.alu); break;
        case Op::kEorImm: write(u.rd, read(u.rn) ^ static_cast<std::uint64_t>(u.imm), now + lat_.alu); break;
        case Op::kLsl: write(u.rd, read(u.rn) << (read(u.rm) & 63), now + lat_.alu); break;
        case Op::kLslImm: write(u.rd, read(u.rn) << (u.imm & 63), now + lat_.alu); break;
        case Op::kLsr: write(u.rd, read(u.rn) >> (read(u.rm) & 63), now + lat_.alu); break;
        case Op::kLsrImm: write(u.rd, read(u.rn) >> (u.imm & 63), now + lat_.alu); break;
        case Op::kMul: write(u.rd, read(u.rn) * read(u.rm), now + lat_.alu); break;
        case Op::kCmp:
          flags_ = (read(u.rn) < read(u.rm)) ? -1 : (read(u.rn) == read(u.rm) ? 0 : 1);
          flags_ready_ = now + lat_.alu;
          break;
        case Op::kCmpImm: {
          const auto rhs = static_cast<std::uint64_t>(u.imm);
          flags_ = (read(u.rn) < rhs) ? -1 : (read(u.rn) == rhs ? 0 : 1);
          flags_ready_ = now + lat_.alu;
          break;
        }
        default:
          ARMBAR_CHECK(false);  // not an ALU op
      }
      ++pc_;
      break;

    case OpClass::kJump:
      pc_ = u.target;
      break;

    case OpClass::kCondBranch: {
      const bool is_cb = u.op == Op::kCbz || u.op == Op::kCbnz;
      const Cycle resolve_at = is_cb ? reg_ready(u.rn) : flags_ready_;
      bool taken = false;
      switch (u.op) {
        case Op::kBeq: taken = flags_ == 0; break;
        case Op::kBne: taken = flags_ != 0; break;
        case Op::kBlt: taken = flags_ < 0; break;
        case Op::kBle: taken = flags_ <= 0; break;
        case Op::kBgt: taken = flags_ > 0; break;
        case Op::kBge: taken = flags_ >= 0; break;
        case Op::kCbz: taken = read(u.rn) == 0; break;
        case Op::kCbnz: taken = read(u.rn) != 0; break;
        default: break;
      }
      const std::uint32_t actual = taken ? u.target : pc_ + 1;
      if (resolve_at <= now) {
        pc_ = actual;
        break;
      }
      if (branches_.size() >= lat_.max_spec_branches) {
        stall(now, branches_.front().resolve_at, StallCause::kSpec);
        return;
      }
      // Static prediction: backward taken, forward not-taken.
      const std::uint32_t predicted = u.target <= pc_ ? u.target : pc_ + 1;
      PendingBranch br;
      br.idx = next_branch_id_++;
      br.resolve_at = resolve_at;
      br.actual_pc = actual;
      br.predicted_pc = predicted;
      std::copy(std::begin(regs_), std::end(regs_), std::begin(br.regs));
      std::copy(std::begin(ready_), std::end(ready_), std::begin(br.ready));
      br.flags = flags_;
      br.flags_ready = flags_ready_;
      br.loads_done = loads_done_at_;
      br.sb_seq = sb_next_seq_;
      branches_.push_back(br);
      pc_ = predicted;
      break;
    }

    case OpClass::kLoad: {
      if (mem_gate_ > now) {
        stall(now, mem_gate_, StallCause::kMemGate);
        return;
      }
      if (load_gate_ > now) {
        stall(now, load_gate_, StallCause::kMemGate);
        return;
      }
      if ((u.flags & kUopAcqSc) != 0) {
        // RCsc: [L]; po; [A] is barrier-ordered — an LDAR must not be
        // satisfied while an earlier STLR is still awaiting global
        // visibility (found by the differential fuzzer: unfenced SB with
        // STLR/LDAR must not show the (0,0) outcome). Plain STRs are
        // deliberately not waited on ([W]; po; [A] is unordered).
        bool release_pending = false;
        for (const auto& e : sb_)
          if (e.release) { release_pending = true; break; }
        if (release_pending) {
          const Cycle ev = earliest_sb_event(now);
          stall(now, ev > now && ev != kNeverCycle ? ev : now + 1,
                StallCause::kMemGate);
          return;
        }
      }
      std::erase_if(load_queue_, [now](Cycle c) { return c <= now; });
      if (load_queue_.size() >= lat_.lq_entries) {
        stall(now, *std::min_element(load_queue_.begin(), load_queue_.end()),
              StallCause::kLqFull);
        return;
      }
      const Addr addr = (u.flags & kUopIndexed) != 0
                            ? read(u.rn) + read(u.rm)
                            : read(u.rn) + static_cast<std::uint64_t>(u.imm);
      const Cycle done = do_load(u, now, addr);
      load_queue_.push_back(done);
      loads_done_at_ = cyc_max(loads_done_at_, done);
      if ((u.flags & kUopAcqSc) != 0) mem_gate_ = cyc_max(mem_gate_, done);
      if ((u.flags & kUopAcqPc) != 0) {
        // RCpc acquire: later loads wait; later stores only have their
        // visibility (drain) floored — the pipe keeps flowing.
        load_gate_ = cyc_max(load_gate_, done);
        drain_floor_ = cyc_max(drain_floor_, done);
      }
      if ((u.flags & kUopExcl) != 0) {
        monitor_valid_ = true;
        monitor_line_ = line_of(addr);
      }
      ++stats_.loads;
      ++pc_;
      break;
    }

    case OpClass::kStore: {
      if (mem_gate_ > now) {
        stall(now, mem_gate_, StallCause::kMemGate);
        return;
      }
      if (store_gate_armed_ && store_gate_watch_ < 0 && store_gate_ready_ <= now)
        store_gate_armed_ = false;  // gate already resolved and elapsed
      if (store_gate_armed_) {
        if (store_gate_watch_ >= 0) {
          // Gate resolution time still unknown: drains outstanding.
          stall(now, store_gate_wait_end(now), StallCause::kStoreGate);
          return;
        }
        if (store_gate_ready_ > now) {
          stall(now, store_gate_ready_, StallCause::kStoreGate);
          return;
        }
        store_gate_armed_ = false;
      }
      if (sb_.size() >= lat_.sb_entries) {
        // With every entry gated on an unresolved branch no buffer event is
        // pending: the branch resolving is the next change (its commit
        // ungates the entries, and the next pump starts their drains).
        Cycle until = earliest_sb_event(now);
        if (until == kNeverCycle)
          until = branches_.empty() ? now + 1 : branches_.front().resolve_at;
        stall(now, until, StallCause::kSbFull);
        return;
      }
      SbEntry e;
      e.seq = sb_next_seq_++;
      e.addr = (u.flags & kUopIndexed) != 0
                   ? read(u.rn) + read(u.rm)
                   : read(u.rn) + static_cast<std::uint64_t>(u.imm);
      e.value = read(u.rd);
      e.value_ready = cyc_max(now + lat_.sb_insert, reg_ready(u.rd));
      e.drain_at = cyc_max(now + lat_.sb_drain_delay, drain_floor_);
      e.enqueued_at = now;
      e.gate_branch = youngest_branch_id();
      e.release = (u.flags & kUopRelease) != 0;
      e.release_loads = loads_done_at_;
      ARMBAR_TRACE(tracer_, sb_enqueue(id_, e.seq, e.addr, now));
      sb_.push_back(e);
      sb_dirty_ = true;
      ++stats_.stores;
      ++pc_;
      break;
    }

    case OpClass::kSwp: {
      if (mem_gate_ > now) {
        stall(now, mem_gate_, StallCause::kMemGate);
        return;
      }
      const Addr addr = read(u.rn);
      std::uint64_t old = 0;
      bool remote = false;
      const Cycle done = mem_.exchange(id_, addr, read(u.rm), now, old, remote);
      write(u.rd, old, done);
      monitor_valid_ = false;
      ++stats_.loads;
      ++stats_.stores;
      ++pc_;
      break;
    }

    case OpClass::kStxr: {
      if (mem_gate_ > now) {
        stall(now, mem_gate_, StallCause::kMemGate);
        return;
      }
      const Addr addr = read(u.rn);
      if (!monitor_valid_ || monitor_line_ != line_of(addr)) {
        write(u.rd, 1, now + lat_.alu);  // fail fast
        monitor_valid_ = false;
        ++stats_.stxr_failures;
      } else {
        bool remote = false;
        const Cycle done = mem_.store(id_, addr, read(u.rm), now, remote);
        write(u.rd, 0, done);
        monitor_valid_ = false;
        ++stats_.stores;
      }
      ++pc_;
      break;
    }

    case OpClass::kIsb:
      // Context synchronization: prior branches already resolved
      // (non-speculative issue); pay the pipeline refill.
      ARMBAR_TRACE(tracer_, barrier_issue(id_, ins_pc, code(u.op), now));
      stall(now, now + lat_.pipeline_flush, StallCause::kBarrier);
      ARMBAR_TRACE(tracer_, barrier_complete(id_, ins_pc, code(u.op), now,
                                             now + lat_.pipeline_flush));
      if (hist_ != nullptr) hist_->barrier_complete.add(lat_.pipeline_flush);
      ++stats_.barriers;
      ++pc_;
      break;

    case OpClass::kDmbLd: {
      BlockingBarrier b;
      b.kind = u.op;
      b.watch = -1;
      b.loads_done = loads_done_at_;
      b.issue = now + lat_.barrier_base;
      b.had_stores = false;
      b.block_from = now + 1;
      b.pc = ins_pc;
      barrier_ = b;
      ARMBAR_TRACE(tracer_, barrier_issue(id_, ins_pc, code(u.op), now));
      ++stats_.barriers;
      ++pc_;
      break;
    }

    case OpClass::kBlockingBarrier: {
      BlockingBarrier b;
      b.kind = u.op;
      b.had_stores = !sb_.empty();
      b.watch = sb_.empty() ? -1 : alloc_watch(now);
      b.loads_done = loads_done_at_;
      b.issue = now + 1;
      b.block_from = now + 1;
      b.pc = ins_pc;
      barrier_ = b;
      ARMBAR_TRACE(tracer_, barrier_issue(id_, ins_pc, code(u.op), now));
      ++stats_.barriers;
      ++pc_;
      break;
    }

    case OpClass::kDmbSt: {
      if (store_gate_armed_ && store_gate_watch_ < 0 && store_gate_ready_ <= now)
        store_gate_armed_ = false;  // gate already resolved and elapsed
      if (store_gate_armed_) {
        // A previous DMB st gate is still pending; serialize on it.
        stall(now,
              store_gate_watch_ >= 0 ? store_gate_wait_end(now)
                                     : store_gate_ready_,
              StallCause::kStoreGate);
        return;
      }
      store_gate_armed_ = true;
      ARMBAR_TRACE(tracer_, barrier_issue(id_, ins_pc, code(u.op), now));
      ARMBAR_TRACE(tracer_, store_gate_arm(id_, ins_pc, now));
      if (sb_.empty()) {
        store_gate_watch_ = -1;
        store_gate_ready_ = now + lat_.barrier_base;
        ARMBAR_TRACE(tracer_, store_gate_open(id_, store_gate_ready_));
      } else {
        store_gate_watch_ = alloc_watch(now);
        store_gate_ready_ = 0;
      }
      ++stats_.barriers;
      ++pc_;
      break;
    }
  }

  ARMBAR_TRACE(tracer_, instr_issue(id_, ins_pc, code(u.op), now));
  ++stats_.instructions;
}

Cycle Core::store_gate_wait_end(Cycle now) const {
  // An unresolved gate resolves only in the pump that retires its last
  // watched drain, and that pump runs at a store-buffer event, so the wait
  // lasts until the event horizon: every step before it would re-issue the
  // blocked instruction into the same one-cycle stall, and the stall cycles
  // are charged over the same interval. A dirty buffer has no valid
  // horizon, and a tracer keeps its per-cycle stall spans.
  if (sb_dirty_ || tracer_ != nullptr) return now + 1;
  const Cycle h = event_horizon();
  return h == kNeverCycle ? now + 1 : h;
}

void Core::run_ahead() {
  // Core-local instructions (NOP, ALU, jump, conditional branch) read and
  // write only this core's registers, flags, ready times and branch list,
  // so they issue ahead of the sweep exactly as per-cycle steps would have
  // issued them: each at max(stall_until_, last_step_ + 1), with the same
  // operand stalls. An invalidation only sets the event and monitor flags,
  // which only WFE, STXR and a parked core read, and none of those occurs
  // in a run. The run stops before the event horizon, so every pump, every
  // branch resolve (and with it every squash) and the cycle cap stay at the
  // steps that meet them. A dirty buffer has no valid horizon, a pending
  // blocking barrier or a park holds issue, and a tracer gets one issue per
  // step so its ring is written in emission order.
  if (tracer_ != nullptr || sb_dirty_ || barrier_ || parked_) return;
  Cycle horizon = event_horizon();
  while (pc_ < prog_size_) {
    const Cycle t = cyc_max(stall_until_, last_step_ + 1);
    const OpClass cls = uops_[pc_].cls;
    if (t >= horizon || (cls != OpClass::kNop && cls != OpClass::kAlu &&
                         cls != OpClass::kJump && cls != OpClass::kCondBranch))
      return;
    last_step_ = t;
    issue(t);
    // A branch pushed onto an empty list becomes the front one.
    if (!branches_.empty())
      horizon = cyc_min(horizon, branches_.front().resolve_at);
  }
}

void Core::step(Cycle now) {
  last_step_ = now;
  // Pump gate: between store-buffer events a pump is an exact no-op. A
  // drain retires only at its drain_done; an entry becomes startable only
  // at its value_ready, drain_at or release_loads, at a retire (MSHR slot,
  // older same-word entry, STLR or TSO front) — all events — or when a
  // branch commits, which marks the buffer dirty like an enqueue or a
  // squash does. A DMB st gate resolves in the pump that retires its last
  // watched drain. The fault engine draws only for startable entries, so
  // skipped pumps draw nothing either.
  if (sb_dirty_ || now >= sb_horizon_) {
    pump_store_buffer(now);
    ++pumps_;
  }
  if (!branches_.empty()) resolve_branches(now);

  auto finish = [&](Cycle candidate) {
    Cycle na = cyc_min(candidate,
                       sb_dirty_ ? earliest_sb_event(now) : sb_horizon_);
    if (!branches_.empty()) na = cyc_min(na, branches_.front().resolve_at);
    // Progress guarantee: never schedule in the past/present.
    next_attention_ = cyc_max(na, now + 1);
  };

  // A halted core only drains: every transition its buffer can make —
  // a drain completing, a delayed drain becoming startable, an MSHR
  // freeing (itself a drain completion) — happens at a cycle that
  // earliest_sb_event already reports, and the pump above starts anything
  // startable *now*. So the wake comes purely from the SB event horizon
  // instead of a step per cycle; once the buffer empties it is kNeverCycle,
  // which is exactly the idle() <=> never-scheduled invariant.
  if (halted_) {
    finish(kNeverCycle);
    return;
  }

  if (parked_) {
    if (now >= park_wake_) {
      parked_ = false;
    } else {
      stats_.stall_cycles[static_cast<int>(StallCause::kParked)] +=
          park_wake_ - now;
      ARMBAR_TRACE(tracer_,
                   stall(id_, pc_, code(StallCause::kParked), now, park_wake_));
      finish(park_wake_);
      return;
    }
  }

  if (stall_until_ > now) {
    finish(stall_until_);
    return;
  }

  if (barrier_) {
    if (!check_blocking_barrier(now)) {
      // Still waiting on watched store drains. Every milestone of that wait
      // is an SB event (drain_done / value_ready / drain_at) or a branch
      // resolve, both of which finish() folds in — and the steps this
      // skips were exact no-ops (the pump touches memory only when a drain
      // starts, which can only happen at one of those cycles). On the
      // server preset a DMB full behind a contended SWP used to burn a
      // step per cycle for the full c2c round trip.
      finish(kNeverCycle);
      return;
    }
    if (stall_until_ > now) {
      finish(stall_until_);
      return;
    }
  }

  // Issue and store-buffer pumping are deliberately NOT wrapped in their
  // own profiler scopes: at one instruction per call, two clock reads cost
  // more than the interpreter work they would measure (the ISSUE 6 budget
  // experiment showed the pair of per-call timers alone eating ~half the
  // hot path). Their time reports as sim.run self time; only coarse-grained
  // phases (run, verify) and the genuinely slow coherence miss path keep
  // dedicated scopes.
  issue(now);
  run_ahead();

  if (halted_) {
    // HALT issues only once no branch is pending, so resolve_branches above
    // may have committed, in this very step, the branch gating a buffered
    // store the pump had already passed over. That store is startable now,
    // yet no SB event reports it (its value_ready/drain_at are behind us):
    // the commit left the buffer dirty, so pump once more next cycle; from
    // then on the halted branch at the top wakes on the event horizon alone.
    finish(sb_dirty_ ? now + 1 : kNeverCycle);
  } else if (parked_) {
    finish(park_wake_);
  } else {
    // The cycle the last issue stalled to, or the one after it.
    finish(cyc_max(stall_until_, last_step_ + 1));
  }
}

void Core::on_invalidate(Addr line, Cycle at) {
  event_pending_ = true;
  if (monitor_valid_ && monitor_line_ == line) monitor_valid_ = false;
  if (parked_) {
    const Cycle wake = cyc_max(at, last_step_ + 1);
    if (wake < park_wake_) {
      park_wake_ = wake;
      next_attention_ = cyc_min(next_attention_, wake);
    }
  }
}

}  // namespace armbar::sim

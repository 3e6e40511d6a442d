#include "shmsvc/channel.hpp"

#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include "arch/barrier.hpp"
#include "common/check.hpp"

namespace armbar::shmsvc {
namespace {

/// Record packing: payload in the high word, the low 32 bits of (round + 1)
/// as the tag in the low word. All three variants pack identically so
/// recovery can validate records without knowing which side wrote them.
std::uint64_t pack_rec(std::uint64_t round, std::uint32_t payload) {
  return (static_cast<std::uint64_t>(payload) << 32) |
         static_cast<std::uint32_t>(round + 1);
}
std::uint32_t rec_tag(std::uint64_t rec) { return static_cast<std::uint32_t>(rec); }
std::uint32_t rec_payload(std::uint64_t rec) {
  return static_cast<std::uint32_t>(rec >> 32);
}

/// Synthetic per-record producer work: k splitmix rounds through an opaque
/// sink, so chaos runs spend enough wall-clock per record for kills to land
/// inside interesting windows.
void spin_work(std::uint32_t k) {
  std::uint64_t s = 0x517cc1b727220a95ull;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < k; ++i) acc ^= splitmix64(s);
  asm volatile("" ::"r"(acc));
}

/// A registered peer is "gone" when its slot is free (clean deregistration)
/// or its pid is dead.
bool peer_gone(Segment& seg, std::uint32_t idx) {
  if (idx == kNoPeer) return true;
  const std::uint32_t pid = seg.peer(idx).pid.load(std::memory_order_acquire);
  return pid == 0 || !pid_alive(static_cast<int>(pid));
}

}  // namespace

const char* to_string(CrashPlan::Point p) {
  switch (p) {
    case CrashPlan::Point::kNone: return "none";
    case CrashPlan::Point::kMidProduce: return "mid-produce";
    case CrashPlan::Point::kAfterPublish: return "after-publish";
    case CrashPlan::Point::kAfterClaim: return "after-claim";
    case CrashPlan::Point::kAfterMark: return "after-mark";
  }
  return "?";
}

bool parse_crash_point(const std::string& s, CrashPlan::Point* out) {
  if (s == "none") *out = CrashPlan::Point::kNone;
  else if (s == "mid-produce") *out = CrashPlan::Point::kMidProduce;
  else if (s == "after-publish") *out = CrashPlan::Point::kAfterPublish;
  else if (s == "after-claim") *out = CrashPlan::Point::kAfterClaim;
  else if (s == "after-mark") *out = CrashPlan::Point::kAfterMark;
  else return false;
  return true;
}

// ---------------------------------------------------------------------------
// Peer registry

Peer::Peer(Segment& seg, Role role) : seg_(seg) {
  const auto pid = static_cast<std::uint32_t>(::getpid());
  // Under heavy churn (chaos restarts) dead pids can fill the registry
  // faster than organic lease-expiry recovery frees them, so a full scan is
  // not a hard error: drive the recovery passes ourselves — the lock word
  // carries the holder's pid, so even an unregistered attacher may run
  // them — and retry. Every channel's pass must see each death once
  // (step 2(b) evidence) before step 4 frees the slot, hence per-channel
  // passes rather than a direct pid sweep here. Bounded patience: a live
  // recoverer excludes us, so give it a few milliseconds to finish.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (attempt > 0) {
      for (std::uint32_t ch = 0; ch < seg_.header().channels; ++ch)
        run_recovery(seg_, ch, kNoPeer);
      if (attempt > 1) ::usleep(2000);
    }
    for (std::uint32_t i = 0; i < kMaxPeers; ++i) {
      std::uint32_t expect = 0;
      if (seg_.peer(i).pid.compare_exchange_strong(expect, pid,
                                                   std::memory_order_acq_rel)) {
        seg_.peer(i).role.store(static_cast<std::uint32_t>(role),
                                std::memory_order_relaxed);
        seg_.peer(i).reclaim_mask.store(0, std::memory_order_relaxed);
        seg_.peer(i).heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
        seg_.peer(i).births.fetch_add(1, std::memory_order_relaxed);
        idx_ = i;
        return;
      }
    }
  }
  ARMBAR_CHECK_MSG(false, "peer registry full of live peers");
}

Peer::~Peer() {
  if (idx_ == kNoPeer || abandoned_) return;
  seg_.peer(idx_).role.store(0, std::memory_order_relaxed);
  seg_.peer(idx_).pid.store(0, std::memory_order_release);
}

void Peer::heartbeat() {
  seg_.peer(idx_).heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Recovery state machine

RecoveryOutcome run_recovery(Segment& seg, std::uint32_t channel,
                             std::uint32_t self_peer, bool force) {
  ChannelCtrl& c = seg.ctrl(channel);
  RecoveryOutcome out;
  // Lock word: (holder pid << 32) | low 32 bits of (peer index + 1). The
  // pid rides in the word itself so stealability never needs a registry
  // slot — which is what lets a registry-full bootstrap attacher
  // (self_peer == kNoPeer, low bits 0) run recovery at all.
  const std::uint64_t want =
      (static_cast<std::uint64_t>(::getpid()) << 32) |
      (static_cast<std::uint64_t>(self_peer + 1) & 0xffffffffull);

  // Single entry under a *stealable* lock: a live recoverer excludes us (it
  // will finish the job), a dead one is replaced.
  for (;;) {
    std::uint64_t cur = c.recovery_lock.load(std::memory_order_acquire);
    if (cur == 0) {
      if (c.recovery_lock.compare_exchange_weak(cur, want,
                                                std::memory_order_acq_rel))
        break;
      continue;
    }
    if (!pid_alive(static_cast<int>(cur >> 32))) {
      if (c.recovery_lock.compare_exchange_weak(cur, want,
                                                std::memory_order_acq_rel)) {
        c.lock_steals.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      continue;
    }
    return out;  // a live peer is already recovering this channel
  }

  const SegmentHeader& h = seg.header();
  const auto kind = static_cast<ChannelKind>(h.kind);
  const std::uint64_t cap = h.capacity;
  const std::uint64_t mask = cap - 1;
  Slot* slots = seg.slots(channel);
  std::atomic<std::uint8_t>* marks = seg.marks(channel);

  // Dead-peer census. A pass with nothing dead and no force request is a
  // spurious lease expiry: no generation bump, no state touched.
  bool dead[kMaxPeers] = {};
  for (std::uint32_t i = 0; i < kMaxPeers; ++i) {
    const std::uint32_t pid = seg.peer(i).pid.load(std::memory_order_acquire);
    if (pid != 0 && !pid_alive(static_cast<int>(pid))) {
      dead[i] = true;
      ++out.dead_peers;
    }
  }
  if (out.dead_peers == 0 && !force) {
    c.recovery_lock.store(0, std::memory_order_release);
    return out;
  }

  out.ran = true;
  c.generation.fetch_add(1, std::memory_order_acq_rel);
  c.recoveries.fetch_add(1, std::memory_order_relaxed);
  pilot::HashPool pool(h.seed, cap);

  // Step 1 — producer intent reconcile. intent == prod + 1 means record
  // `prod` was mid-write when the producer vanished. Rescue it if the
  // publication is complete (tag/seq already visible), else tombstone-publish
  // it so the ticket flows to a consumer as a counted gap instead of
  // wedging every waiter behind an eternally-torn slot.
  const std::uint32_t pp = c.producer_peer.load(std::memory_order_acquire);
  const bool producer_gone = pp == kNoPeer || peer_gone(seg, pp);
  std::uint64_t p = c.prod.load(std::memory_order_relaxed);
  const std::uint64_t in = c.intent.load(std::memory_order_relaxed);
  if ((producer_gone || force) && in == p + 1) {
    Slot& s = slots[p & mask];
    bool published;
    if (kind == ChannelKind::kPilotRing) {
      published = rec_tag(s.rec.load(std::memory_order_relaxed) ^
                          pool.at(p & mask)) == static_cast<std::uint32_t>(p + 1);
    } else {
      published = s.seq.load(std::memory_order_relaxed) == p + 1;
    }
    if (published) {
      c.intents_rescued.fetch_add(1, std::memory_order_relaxed);
      ++out.intents_rescued;
    } else {
      s.stamp.store(now_ns(), std::memory_order_relaxed);
      const std::uint64_t rec = pack_rec(p, kGapPayload);
      if (kind == ChannelKind::kPilotRing) {
        s.rec.store(rec ^ pool.at(p & mask), std::memory_order_relaxed);
      } else {
        s.rec.store(rec, std::memory_order_relaxed);
        arch::barrier(arch::Barrier::kDmbSt);
        s.seq.store(p + 1, std::memory_order_relaxed);
      }
      c.gaps_tombstoned.fetch_add(1, std::memory_order_relaxed);
      ++out.gaps_tombstoned;
    }
    p += 1;
    c.prod.store(p, std::memory_order_relaxed);
    c.intent.store(p, std::memory_order_relaxed);
  }

  // Step 2 — slot sweep. Two repairs:
  //   (a) bad sequence parity — for slot i only seq ≡ i (+1 for the
  //       publish state of the non-Pilot kinds) mod capacity is reachable;
  //       anything else is torn state, reset to the next legitimate free
  //       round (claimants of skipped rounds self-gap via the moved-past
  //       path in pop()).
  //   (b) claimed-but-unreleased tickets (published, ticket < cons, never
  //       released): the claimant crashed between claim and release. The
  //       mark fetch_add arbitrates against a merely-slow claimant: old == 0
  //       ⇒ the ticket becomes a counted gap; old != 0 ⇒ it was marked and
  //       only the release is missing.
  // (b) is gated on actual dead peers so a force-only pass (producer attach)
  // never gap-steals records from live, merely slow claimants.
  const std::uint64_t cons_snap = c.cons.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < cap; ++i) {
    Slot& s = slots[i];
    const std::uint64_t sq = s.seq.load(std::memory_order_relaxed);
    const std::uint64_t rel = (sq - i) & mask;  // (sq − i) mod cap
    const bool parity_ok =
        kind == ChannelKind::kPilotRing ? rel == 0 : (rel == 0 || rel == 1);
    if (!parity_ok) {
      // Repair to p + off: the free state for the producer's next round on
      // this slot, which is simultaneously the released state of the last
      // claimable round — a claimant of that round sees moved-past and
      // self-gaps, and the producer's flow-control wait exits.
      const std::uint64_t off = (i - (p & mask)) & mask;
      std::uint64_t torn = sq;
      s.seq.compare_exchange_strong(torn, p + off, std::memory_order_relaxed);
      c.seq_repairs.fetch_add(1, std::memory_order_relaxed);
      ++out.seq_repairs;
      continue;
    }
    if (out.dead_peers == 0) continue;
    const std::uint64_t r = sq - rel;  // the round this slot state belongs to
    bool published;
    if (kind == ChannelKind::kPilotRing) {
      published = rec_tag(s.rec.load(std::memory_order_relaxed) ^ pool.at(i)) ==
                  static_cast<std::uint32_t>(r + 1);
    } else {
      published = rel == 1;
    }
    if (!published || r >= cons_snap || r >= h.records) continue;
    const std::uint8_t old = marks[r].fetch_add(kMarkGap, std::memory_order_acq_rel);
    if (old == 0) {
      c.gaps_reclaimed.fetch_add(1, std::memory_order_relaxed);
      ++out.gaps_reclaimed;
    } else {
      marks[r].fetch_sub(kMarkGap, std::memory_order_acq_rel);
      c.slot_reclaims.fetch_add(1, std::memory_order_relaxed);
      ++out.slot_reclaims;
    }
    // Release, unless the claimant released it since we read it.
    std::uint64_t claimed = sq;
    s.seq.compare_exchange_strong(claimed, r + cap, std::memory_order_relaxed);
  }

  // Step 3 — locks held by gone peers. The partial critical section behind
  // a stolen qlock is exactly the state steps 1–2 repaired.
  const std::uint64_t ql = c.qlock.load(std::memory_order_acquire);
  if (ql != 0 && peer_gone(seg, static_cast<std::uint32_t>(ql - 1))) {
    c.qlock.store(0, std::memory_order_release);
    c.lock_steals.fetch_add(1, std::memory_order_relaxed);
  }

  // Step 4 — registry cleanup, gated per channel: a dead peer's slot is
  // freed only after *every* channel's recovery has swept with its death
  // visible, so no channel loses the evidence it needs for step 2(b).
  const std::uint64_t all_channels = h.channels >= 64
                                         ? ~0ull
                                         : (1ull << h.channels) - 1;
  for (std::uint32_t i = 0; i < kMaxPeers; ++i) {
    if (!dead[i]) continue;
    const std::uint64_t seen =
        seg.peer(i).reclaim_mask.fetch_or(1ull << channel,
                                          std::memory_order_acq_rel) |
        (1ull << channel);
    if ((seen & all_channels) == all_channels) {
      seg.peer(i).role.store(0, std::memory_order_relaxed);
      seg.peer(i).reclaim_mask.store(0, std::memory_order_relaxed);
      seg.peer(i).pid.store(0, std::memory_order_release);
      c.peer_reclaims.fetch_add(1, std::memory_order_relaxed);
    }
  }

  c.recovery_lock.store(0, std::memory_order_release);
  // Wake every class of waiter: whatever was wedged can now re-evaluate.
  c.cons_doorbell.post();
  c.prod_doorbell.post();
  c.lock_bell.post();
  return out;
}

// ---------------------------------------------------------------------------
// Q-variant lock (peer-owned, stealable via recovery)

namespace {

/// Acquire ctrl.qlock as peer `self`. Counts as one full-barrier-class
/// order-preserving op (the CAS acquire) in `full`; lease expiry runs
/// recovery, which releases locks held by dead peers.
void qlock_acquire(Segment& seg, std::uint32_t channel, std::uint32_t self,
                   const ChannelTuning& tuning, std::uint64_t* barriers,
                   std::uint64_t* full) {
  ChannelCtrl& c = seg.ctrl(channel);
  Backoff bo(tuning.backoff);
  const std::uint64_t start = now_ns();
  for (;;) {
    std::uint64_t cur = c.qlock.load(std::memory_order_relaxed);
    if (cur == 0) {
      if (c.qlock.compare_exchange_weak(cur, self + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
        ++*barriers;
        ++*full;
        return;
      }
      continue;
    }
    if (bo.pause(c.lock_bell, &c.futex_waits)) {
      run_recovery(seg, channel, self);
      bo.reset_lease();
    }
    if (now_ns() - start > tuning.op_deadline_ns)
      throw StallError("qlock acquire stalled past the op deadline");
  }
}

void qlock_release(ChannelCtrl& c, std::uint64_t* barriers, std::uint64_t* full) {
  c.qlock.store(0, std::memory_order_release);
  ++*barriers;
  ++*full;
  c.lock_bell.post();
}

}  // namespace

// ---------------------------------------------------------------------------
// Producer

Producer::Producer(Segment& seg, std::uint32_t channel, Peer& peer,
                   const ChannelTuning& tuning, CrashPlan crash)
    : seg_(seg),
      c_(seg.ctrl(channel)),
      slots_(seg.slots(channel)),
      peer_(peer),
      tuning_(tuning),
      crash_(crash),
      pool_(seg.header().seed, seg.header().capacity),
      kind_(static_cast<ChannelKind>(seg.header().kind)),
      mask_(seg.header().capacity - 1),
      channel_(channel) {
  // Single-producer contract: a *live* incumbent is a caller bug.
  const std::uint32_t pp = c_.producer_peer.load(std::memory_order_acquire);
  ARMBAR_CHECK_MSG(pp == kNoPeer || peer_gone(seg_, pp) || pp == peer.index(),
                   "second live producer attached to channel");
  // Reconcile a dead predecessor's in-flight record before taking over, so
  // we never double-publish round `prod`. A live peer already recovering
  // the channel may be reconciling it right now, and reading `prod` before
  // that pass advances it would leave us waiting on a slot that is never
  // free again: `prod` is final once a pass of our own has run.
  while (!run_recovery(seg_, channel_, peer_.index(), /*force=*/true).ran)
    sched_yield();
  c_.producer_peer.store(peer_.index(), std::memory_order_release);
  pos_ = c_.prod.load(std::memory_order_relaxed);
}

void Producer::crash_point(CrashPlan::Point p) {
  if (crash_.point == p && ops_ == crash_.at_op) ::kill(::getpid(), SIGKILL);
}

bool Producer::produce(std::uint32_t payload) {
  payload &= kPayloadMask;
  if (c_.stop.load(std::memory_order_relaxed) != 0 ||
      pos_ >= seg_.header().records) {
    finish();
    return false;
  }
  const std::uint64_t p = pos_;
  Slot& s = slots_[p & mask_];

  // Flow control: wait for the slot's previous round to be released
  // (seq == p). Monotone, so checking outside the Q lock is safe.
  Backoff bo(tuning_.backoff);
  const std::uint64_t start = now_ns();
  while (s.seq.load(std::memory_order_relaxed) != p) {
    if (c_.stop.load(std::memory_order_relaxed) != 0) {
      finish();
      return false;
    }
    if (bo.pause(c_.prod_doorbell, &c_.futex_waits)) {
      run_recovery(seg_, channel_, peer_.index());
      bo.reset_lease();
    }
    if (now_ns() - start > tuning_.op_deadline_ns)
      throw StallError("producer stalled waiting for a free slot");
  }

  if (kind_ == ChannelKind::kLockQueue) {
    qlock_acquire(seg_, channel_, peer_.index(), tuning_, &barriers_l_, &full_l_);
  } else if (kind_ == ChannelKind::kRing) {
    // Availability barrier (paper Algorithm 2): order the seq check before
    // the record write.
    arch::barrier(arch::Barrier::kDmbLd);
    ++barriers_l_;
  }
  // RB-P needs no barrier here: the loop-exit branch is a control
  // dependency ordering the stores below after the seq load.

  // Intent journal: from here to the prod advance, this record is
  // in-flight; a successor reconciles it if we die.
  c_.intent.store(p + 1, std::memory_order_relaxed);
  s.stamp.store(now_ns(), std::memory_order_relaxed);
  const std::uint64_t rec = pack_rec(p, payload);
  if (kind_ == ChannelKind::kPilotRing) {
    // Pilot publication: the shuffled tag IS the flag — one relaxed store,
    // no publish barrier, and seq is never producer-written (it is the
    // consumer-release word only, so no ordering between the two is needed).
    crash_point(CrashPlan::Point::kMidProduce);
    s.rec.store(rec ^ pool_.at(p & mask_), std::memory_order_relaxed);
  } else {
    s.rec.store(rec, std::memory_order_relaxed);
    crash_point(CrashPlan::Point::kMidProduce);
    if (kind_ == ChannelKind::kRing) {
      arch::barrier(arch::Barrier::kDmbSt);  // publish barrier
      ++barriers_l_;
    }
    // Q: the lock release below orders the publication instead.
    s.seq.store(p + 1, std::memory_order_relaxed);
  }
  crash_point(CrashPlan::Point::kAfterPublish);
  pos_ = p + 1;
  c_.prod.store(pos_, std::memory_order_relaxed);
  if (kind_ == ChannelKind::kLockQueue) qlock_release(c_, &barriers_l_, &full_l_);

  c_.cons_doorbell.post();
  ++ops_;
  if ((ops_ & 0xf) == 0) peer_.heartbeat();
  if ((ops_ & 0xff) == 0) flush_metrics();
  if (tuning_.produce_work != 0) spin_work(tuning_.produce_work);
  return true;
}

void Producer::finish() {
  if (done_) return;
  done_ = true;
  flush_metrics();
  c_.produce_done.store(1, std::memory_order_release);
  c_.cons_doorbell.post();
}

void Producer::flush_metrics() {
  if (barriers_l_ != 0) c_.barriers.fetch_add(barriers_l_, std::memory_order_relaxed);
  if (full_l_ != 0) c_.full_barriers.fetch_add(full_l_, std::memory_order_relaxed);
  barriers_l_ = full_l_ = 0;
}

// ---------------------------------------------------------------------------
// Consumer

Consumer::Consumer(Segment& seg, std::uint32_t channel, Peer& peer,
                   const ChannelTuning& tuning, CrashPlan crash)
    : seg_(seg),
      c_(seg.ctrl(channel)),
      slots_(seg.slots(channel)),
      marks_(seg.marks(channel)),
      peer_(peer),
      tuning_(tuning),
      crash_(crash),
      pool_(seg.header().seed, seg.header().capacity),
      kind_(static_cast<ChannelKind>(seg.header().kind)),
      mask_(seg.header().capacity - 1),
      channel_(channel) {}

Consumer::~Consumer() { flush_metrics(); }

void Consumer::crash_point(CrashPlan::Point p) {
  if (crash_.point == p && ops_ == crash_.at_op) ::kill(::getpid(), SIGKILL);
}

void Consumer::flush_metrics() {
  if (barriers_l_ != 0) c_.barriers.fetch_add(barriers_l_, std::memory_order_relaxed);
  if (full_l_ != 0) c_.full_barriers.fetch_add(full_l_, std::memory_order_relaxed);
  barriers_l_ = full_l_ = 0;
  if (lat_count_l_ != 0) {
    c_.latency_sum_ns.fetch_add(lat_sum_l_, std::memory_order_relaxed);
    c_.latency_count.fetch_add(lat_count_l_, std::memory_order_relaxed);
    for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
      if (hist_l_[b] != 0) {
        c_.latency_hist[b].fetch_add(hist_l_[b], std::memory_order_relaxed);
        hist_l_[b] = 0;
      }
    }
    lat_sum_l_ = lat_count_l_ = 0;
  }
  if (delivered_l_ != 0) c_.delivered.fetch_add(delivered_l_, std::memory_order_relaxed);
  if (gaps_l_ != 0) c_.gap_records.fetch_add(gaps_l_, std::memory_order_relaxed);
  delivered_l_ = gaps_l_ = 0;
}

void Consumer::note_latency(std::uint64_t stamp_ns) {
  const std::uint64_t t = now_ns();
  const std::uint64_t d = t > stamp_ns ? t - stamp_ns : 0;
  lat_sum_l_ += d;
  ++lat_count_l_;
  ++hist_l_[latency_bucket(d)];
}

Consumer::Pop Consumer::pop(std::uint32_t* payload, std::uint64_t* ticket) {
  if (kind_ == ChannelKind::kLockQueue) return pop_locked(payload, ticket);
  const std::uint64_t cap = mask_ + 1;
  const std::uint64_t start = now_ns();
  for (;;) {
    // ---- claim a ticket by CAS on the shared cons counter --------------
    std::uint64_t t;
    {
      Backoff bo(tuning_.backoff);
      for (;;) {
        std::uint64_t cn = c_.cons.load(std::memory_order_relaxed);
        const std::uint64_t pr = c_.prod.load(std::memory_order_relaxed);
        if (cn < pr) {
          if (c_.cons.compare_exchange_weak(cn, cn + 1,
                                            std::memory_order_relaxed))
          {
            t = cn;
            break;
          }
          continue;
        }
        if (c_.produce_done.load(std::memory_order_acquire) != 0) {
          // The acquire pairs with finish()'s release: re-read with the
          // final prod value before declaring the channel drained.
          if (c_.cons.load(std::memory_order_relaxed) >=
              c_.prod.load(std::memory_order_relaxed)) {
            flush_metrics();
            return Pop::kDone;
          }
          continue;
        }
        if (bo.pause(c_.cons_doorbell, &c_.futex_waits)) {
          run_recovery(seg_, channel_, peer_.index());
          bo.reset_lease();
        }
        if (now_ns() - start > tuning_.op_deadline_ns)
          throw StallError("consumer stalled waiting for records");
      }
    }
    crash_point(CrashPlan::Point::kAfterClaim);

    // ---- wait for the record to be valid (publication visible) ---------
    Slot& s = slots_[t & mask_];
    std::uint64_t rec = 0;
    bool moved_past = false;
    {
      Backoff bo(tuning_.backoff);
      for (;;) {
        if (kind_ == ChannelKind::kPilotRing) {
          const std::uint64_t raw =
              s.rec.load(std::memory_order_relaxed) ^ pool_.at(t & mask_);
          if (rec_tag(raw) == static_cast<std::uint32_t>(t + 1)) {
            // Pilot: tag and payload travel in one single-copy-atomic
            // word — no consume barrier needed.
            rec = raw;
            break;
          }
        } else {
          if (s.seq.load(std::memory_order_relaxed) == t + 1) {
            arch::barrier(arch::Barrier::kDmbLd);  // consume barrier
            ++barriers_l_;
            rec = s.rec.load(std::memory_order_relaxed);
            break;
          }
        }
        if (s.seq.load(std::memory_order_relaxed) >= t + cap) {
          // The slot cycled past our round: recovery repaired/reclaimed it.
          moved_past = true;
          break;
        }
        if (bo.pause(c_.cons_doorbell, &c_.futex_waits)) {
          run_recovery(seg_, channel_, peer_.index());
          bo.reset_lease();
        }
        if (now_ns() - start > tuning_.op_deadline_ns)
          throw StallError("consumer stalled waiting for record validity");
      }
    }

    if (moved_past) {
      // Our ticket was skipped; account it as a gap unless recovery already
      // did. Either way the slot is not ours to release.
      const std::uint8_t old =
          marks_[t].fetch_add(kMarkGap, std::memory_order_acq_rel);
      if (old != 0) {
        marks_[t].fetch_sub(kMarkGap, std::memory_order_acq_rel);
        continue;  // accounted elsewhere; claim the next ticket
      }
      ++gaps_l_;
      ++ops_;
      *payload = kGapPayload;
      *ticket = t;
      return Pop::kGap;
    }

    const bool gap = rec_payload(rec) == kGapPayload;
    const std::uint8_t add = gap ? kMarkGap : kMarkDelivered;
    const std::uint8_t old = marks_[t].fetch_add(add, std::memory_order_acq_rel);
    if (old != 0) {
      // Recovery won the ticket (it marked and released); discard our read.
      marks_[t].fetch_sub(add, std::memory_order_acq_rel);
      continue;
    }
    crash_point(CrashPlan::Point::kAfterMark);
    note_latency(s.stamp.load(std::memory_order_relaxed));

    // Release: order our reads of rec/stamp before handing the slot back.
    // Only from this round's published state: recovery cannot tell a slow
    // claimant from a dead one, so it may have released the slot for us
    // while we were descheduled and the producer may have reused it since;
    // a plain store would move the slot back to an old round and wedge
    // that round's claimant.
    arch::barrier(arch::Barrier::kDmbLd);
    ++barriers_l_;
    std::uint64_t published = kind_ == ChannelKind::kPilotRing ? t : t + 1;
    s.seq.compare_exchange_strong(published, t + cap, std::memory_order_relaxed);
    c_.prod_doorbell.post();
    ++ops_;
    if ((ops_ & 0xf) == 0) peer_.heartbeat();
    if ((ops_ & 0xff) == 0) flush_metrics();
    if (gap) {
      ++gaps_l_;
      *payload = kGapPayload;
      *ticket = t;
      return Pop::kGap;
    }
    ++delivered_l_;
    *payload = rec_payload(rec);
    *ticket = t;
    return Pop::kOk;
  }
}

Consumer::Pop Consumer::pop_locked(std::uint32_t* payload, std::uint64_t* ticket) {
  const std::uint64_t cap = mask_ + 1;
  const std::uint64_t start = now_ns();
  Backoff bo(tuning_.backoff);
  for (;;) {
    qlock_acquire(seg_, channel_, peer_.index(), tuning_, &barriers_l_, &full_l_);
    const std::uint64_t cn = c_.cons.load(std::memory_order_relaxed);
    const std::uint64_t pr = c_.prod.load(std::memory_order_relaxed);
    if (cn >= pr) {
      const bool done = c_.produce_done.load(std::memory_order_acquire) != 0 &&
                        c_.cons.load(std::memory_order_relaxed) >=
                            c_.prod.load(std::memory_order_relaxed);
      qlock_release(c_, &barriers_l_, &full_l_);
      if (done) {
        flush_metrics();
        return Pop::kDone;
      }
      if (bo.pause(c_.cons_doorbell, &c_.futex_waits)) {
        run_recovery(seg_, channel_, peer_.index());
        bo.reset_lease();
      }
      if (now_ns() - start > tuning_.op_deadline_ns)
        throw StallError("consumer stalled waiting for records (Q)");
      continue;
    }
    // Claim under the lock (no CAS needed; the lock serializes consumers).
    const std::uint64_t t = cn;
    c_.cons.store(cn + 1, std::memory_order_relaxed);
    crash_point(CrashPlan::Point::kAfterClaim);
    Slot& s = slots_[t & mask_];
    const std::uint64_t rec = s.rec.load(std::memory_order_relaxed);
    // Lock handoff from the producer ordered the publication; the seq word
    // can still disagree after a recovery raced us, which the mark resolves.
    const bool valid = s.seq.load(std::memory_order_relaxed) == t + 1 &&
                       rec_tag(rec) == static_cast<std::uint32_t>(t + 1);
    const bool gap = !valid || rec_payload(rec) == kGapPayload;
    const std::uint8_t add = gap ? kMarkGap : kMarkDelivered;
    const std::uint8_t old = marks_[t].fetch_add(add, std::memory_order_acq_rel);
    if (old != 0) {
      marks_[t].fetch_sub(add, std::memory_order_acq_rel);
      qlock_release(c_, &barriers_l_, &full_l_);
      continue;
    }
    crash_point(CrashPlan::Point::kAfterMark);
    if (valid) note_latency(s.stamp.load(std::memory_order_relaxed));
    if (valid) s.seq.store(t + cap, std::memory_order_relaxed);
    qlock_release(c_, &barriers_l_, &full_l_);
    c_.prod_doorbell.post();
    ++ops_;
    if ((ops_ & 0xf) == 0) peer_.heartbeat();
    if ((ops_ & 0xff) == 0) flush_metrics();
    if (gap) {
      ++gaps_l_;
      *payload = kGapPayload;
      *ticket = t;
      return Pop::kGap;
    }
    ++delivered_l_;
    *payload = rec_payload(rec);
    *ticket = t;
    return Pop::kOk;
  }
}

}  // namespace armbar::shmsvc

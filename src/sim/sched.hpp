// Attention scheduler for the machine run loop (ISSUE 7 fast path).
//
// The run loop needs two things per iteration: the earliest cycle any live
// core wants attention (to jump simulated time forward), and the set of
// cores due at that cycle (stepped in core-id order — see machine.cpp for
// why that order is load-bearing). The PR-6 loop recomputed the minimum
// with a full scan over all cores every iteration; with mostly-idle or
// far-future cores that scan dominated kSimSchedule.
//
// AttentionQueue keeps a dense per-core cycle array (the authoritative
// slots — one cache line for typical core counts) plus a lazy min-heap of
// (cycle, core) pairs. set() pushes every cycle but the lane's (below);
// min() and take_due() pop stale entries whose cycle no longer matches the
// slot. Each slot write pushes at most one heap entry, so the heap holds at
// most one stale entry per set() and is compacted when it grows past 4x the
// core count.
//
// Beside the heap sits the next-cycle lane: a 64-bit mask of the cores due
// at one cycle, the one after the cycle take_due() last swept. Most steps
// reschedule their core at exactly that cycle (a core computing or spinning
// issues one instruction per cycle), and a set() there costs two bit
// operations instead of a heap push and a later pop. The lane is a second
// home for exactly one cycle value: a core whose slot is the lane cycle has
// its lane bit and no valid heap entry, every other scheduled core the
// reverse. set() clears the old bit before it files the new cycle, and
// take_due() moves any heap entry at the new lane cycle into the lane, so
// no bit outlives its slot. kNeverCycle never enters the lane.
//
// take_due() hands the run loop the cores due at a cycle as a 64-bit mask
// (a machine has at most kMaxCores = 64 cores), which the loop steps in id
// order, so neither the heap's pop order nor the lane leaks into simulated
// timing. A step can pull another core's attention back to the current
// cycle (coherence invalidations waking WFE parkers); the run loop folds
// such wakes of later ids into the sweep it is running, and earlier ids
// keep their fresh heap entry for the next pass at the same cycle.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace armbar::sim {

class AttentionQueue {
 public:
  explicit AttentionQueue(std::uint32_t num_cores)
      : slots_(num_cores, kNeverCycle) {
    ARMBAR_CHECK_MSG(num_cores <= 64, "due masks hold at most 64 cores");
    heap_.reserve(num_cores * 2);
  }

  /// Authoritative next-attention cycle for `core` (kNeverCycle = idle).
  void set(std::uint32_t core, Cycle at) {
    const std::uint64_t bit = std::uint64_t{1} << core;
    slots_[core] = at;
    if (at == lane_at_) {
      lane_ |= bit;
      return;
    }
    lane_ &= ~bit;
    if (at != kNeverCycle) {
      heap_.push_back(Entry{at, core});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      ++pushes_;
      if (heap_.size() > 4 * slots_.size() && heap_.size() > 16) compact();
    }
  }

  Cycle at(std::uint32_t core) const { return slots_[core]; }

  /// Earliest attention cycle over all cores (kNeverCycle when none pending).
  /// Amortized O(log n): pops entries invalidated by later set() calls.
  Cycle min() {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (slots_[top.core] == top.at) break;
      pop();
    }
    const Cycle heap_min = heap_.empty() ? kNeverCycle : heap_.front().at;
    return lane_ != 0 && lane_at_ < heap_min ? lane_at_ : heap_min;
  }

  /// The cores due at or before `now` (bit c = core c): the lane, when its
  /// cycle has come, and every heap entry at or before `now` whose slot it
  /// still matched. Their slots are left as they are: the caller steps each
  /// of them and set()s the new attention. The lane then serves `now + 1`;
  /// a second call at the same cycle leaves it as it is.
  std::uint64_t take_due(Cycle now) {
    std::uint64_t due = 0;
    if (lane_at_ <= now) {
      due = lane_;
      lane_hits_ += static_cast<std::uint64_t>(std::popcount(lane_));
      lane_ = 0;
      lane_at_ = now + 1;
    }
    while (!heap_.empty() && heap_.front().at <= now) {
      const Entry top = heap_.front();
      pop();
      if (slots_[top.core] == top.at) due |= std::uint64_t{1} << top.core;
    }
    // Entries filed at the new lane cycle before it was the lane cycle.
    while (!heap_.empty() && heap_.front().at == lane_at_) {
      const Entry top = heap_.front();
      pop();
      if (slots_[top.core] == top.at) lane_ |= std::uint64_t{1} << top.core;
    }
    return due;
  }

  /// The cycle the lane serves, and its members (bit c = core c).
  Cycle lane_at() const { return lane_at_; }
  std::uint64_t lane() const { return lane_; }
  /// Heap entries set() has pushed, and cores take_due() took from the lane.
  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t lane_hits() const { return lane_hits_; }

 private:
  struct Entry {
    Cycle at;
    std::uint32_t core;
  };
  // std::push_heap builds a max-heap; "later is less" turns it into min.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return a.at > b.at; }
  };

  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }

  void compact() {
    heap_.clear();
    for (std::uint32_t c = 0; c < slots_.size(); ++c)
      if (slots_[c] != kNeverCycle && slots_[c] != lane_at_)
        heap_.push_back(Entry{slots_[c], c});
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Cycle> slots_;
  std::vector<Entry> heap_;
  /// Before the first take_due() the lane serves cycle 0, where
  /// load_program files every core.
  Cycle lane_at_ = 0;
  std::uint64_t lane_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t lane_hits_ = 0;
};

}  // namespace armbar::sim

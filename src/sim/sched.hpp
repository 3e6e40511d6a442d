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
// (cycle, core) pairs. set() pushes unconditionally; min() and take_due()
// pop stale entries whose cycle no longer matches the slot. Each slot write
// pushes at most one heap entry, so the heap holds at most one stale entry
// per set() and is compacted when it grows past 4x the core count.
//
// take_due() hands the run loop the cores due at a cycle as a 64-bit mask
// (a machine has at most kMaxCores = 64 cores), which the loop steps in id
// order, so the heap's pop order never leaks into simulated timing. A step
// can pull another core's attention back to the current cycle (coherence
// invalidations waking WFE parkers); the run loop folds such wakes of later
// ids into the sweep it is running, and earlier ids keep their fresh heap
// entry for the next pass at the same cycle.
#pragma once

#include <algorithm>
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
    slots_[core] = at;
    if (at != kNeverCycle) {
      heap_.push_back(Entry{at, core});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      if (heap_.size() > 4 * slots_.size() && heap_.size() > 16) compact();
    }
  }

  Cycle at(std::uint32_t core) const { return slots_[core]; }

  /// Earliest attention cycle over all cores (kNeverCycle when none pending).
  /// Amortized O(log n): pops entries invalidated by later set() calls.
  Cycle min() {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (slots_[top.core] == top.at) return top.at;
      pop();
    }
    return kNeverCycle;
  }

  /// Pop every entry at or before `now`; returns the cores whose slot it
  /// still matched (bit c = core c). Their slots are left as they are: the
  /// caller steps each of them and set()s the new attention.
  std::uint64_t take_due(Cycle now) {
    std::uint64_t due = 0;
    while (!heap_.empty() && heap_.front().at <= now) {
      const Entry top = heap_.front();
      pop();
      if (slots_[top.core] == top.at) due |= std::uint64_t{1} << top.core;
    }
    return due;
  }

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
      if (slots_[c] != kNeverCycle) heap_.push_back(Entry{slots_[c], c});
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Cycle> slots_;
  std::vector<Entry> heap_;
};

}  // namespace armbar::sim

// Attention scheduler for the machine run loop (ISSUE 7 fast path).
//
// The run loop needs two things per iteration: the earliest cycle any live
// core wants attention (to jump simulated time forward), and the set of
// cores due at that cycle (stepped in core-id order — see machine.cpp for
// why that order is load-bearing). The PR-6 loop recomputed the minimum
// with a full scan over all cores every iteration; with mostly-idle or
// far-future cores that scan dominated the run loop's host time.
//
// AttentionQueue keeps a dense per-core cycle array (the authoritative
// slots — one cache line for typical core counts), a 64-cycle wheel for
// the near future and a lazy min-heap of (cycle, core) pairs for the rest.
// min() and take_due() pop stale heap entries whose cycle no longer matches
// the slot. Each slot write pushes at most one heap entry, so the heap holds
// at most one stale entry per set() and is compacted when it grows past 4x
// the core count.
//
// The wheel has 64 one-cycle lanes, one 64-bit core mask per `cycle mod
// 64`, plus an occupancy mask of the non-empty lanes. It covers the window
// of the 63 cycles after the one take_due() last swept, [lo, lo + 63); the
// swept cycle's own lane stays empty, so a lane names one cycle only. Most
// steps reschedule their core a few cycles ahead (a core computing or
// spinning runs its core-local instructions in one step and comes back at
// the next load, store or event), and a set() there costs two bit
// operations instead of a heap push and a later pop. A scheduled core's
// wheel bit is set exactly when its slot lies in the window: set() clears
// the bit of the old slot before it files the new one, and take_due()
// moves the heap entries the advancing window reaches into the wheel. The
// heap holds only cycles beyond the window, kNeverCycle never enters
// either, and a wake back to the swept cycle itself (below the window)
// takes the heap.
//
// take_due() hands the run loop the cores due at a cycle as a 64-bit mask
// (a machine has at most kMaxCores = 64 cores), which the loop steps in id
// order, so neither the heap's pop order nor the wheel leaks into simulated
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

/// Set bits of `x`. std::popcount compiles to a libgcc call on baseline
/// x86-64 (no POPCNT), so the scheduler counts with the SWAR sum instead.
constexpr std::uint64_t bit_count(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return (x * 0x0101010101010101u) >> 56;
}

class AttentionQueue {
 public:
  /// Lanes in the wheel, and cycles in its window (the swept cycle's own
  /// lane stays empty).
  static constexpr std::uint32_t kLanes = 64;
  static constexpr Cycle kWindow = kLanes - 1;

  explicit AttentionQueue(std::uint32_t num_cores)
      : slots_(num_cores, kNeverCycle) {
    ARMBAR_CHECK_MSG(num_cores <= 64, "due masks hold at most 64 cores");
    heap_.reserve(num_cores * 2);
  }

  /// Authoritative next-attention cycle for `core` (kNeverCycle = idle).
  void set(std::uint32_t core, Cycle at) {
    const std::uint64_t bit = std::uint64_t{1} << core;
    if (const Cycle old = slots_[core]; in_window(old)) {
      std::uint64_t& lane = lanes_[old % kLanes];
      lane &= ~bit;
      if (lane == 0) occupied_ &= ~(std::uint64_t{1} << (old % kLanes));
    }
    slots_[core] = at;
    if (in_window(at)) {
      lanes_[at % kLanes] |= bit;
      occupied_ |= std::uint64_t{1} << (at % kLanes);
    } else if (at != kNeverCycle) {
      heap_.push_back(Entry{at, core});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      ++pushes_;
      if (heap_.size() > 4 * slots_.size() && heap_.size() > 16) compact();
    }
  }

  Cycle at(std::uint32_t core) const { return slots_[core]; }

  /// Earliest attention cycle over all cores (kNeverCycle when none pending):
  /// the lower of the first occupied lane and the valid heap top.
  /// Amortized O(log n): pops entries invalidated by later set() calls.
  Cycle min() {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (slots_[top.core] == top.at) break;
      pop();
    }
    Cycle m = heap_.empty() ? kNeverCycle : heap_.front().at;
    if (occupied_ != 0) {
      // Rotated so bit k is the lane of cycle lo_ + k.
      const auto k = std::countr_zero(std::rotr(occupied_, static_cast<int>(lo_ % kLanes)));
      m = std::min(m, lo_ + static_cast<Cycle>(k));
    }
    return m;
  }

  /// The cores due at or before `now` (bit c = core c): the wheel's lanes up
  /// to `now` and every heap entry at or before `now` whose slot it still
  /// matched. Their slots are left as they are: the caller steps each of
  /// them and set()s the new attention. The window then starts at
  /// `now + 1`, taking in the heap entries it now covers; a second call at
  /// the same cycle leaves the wheel as it is.
  std::uint64_t take_due(Cycle now) {
    std::uint64_t due = 0;
    if (now >= lo_) {
      const Cycle span = now - lo_ + 1;
      const std::uint64_t lanes =
          span >= kWindow
              ? ~std::uint64_t{0}
              : std::rotl((std::uint64_t{1} << span) - 1, static_cast<int>(lo_ % kLanes));
      for (std::uint64_t take = occupied_ & lanes; take != 0; take &= take - 1) {
        std::uint64_t& lane = lanes_[std::countr_zero(take)];
        due |= lane;
        lane = 0;
      }
      occupied_ &= ~lanes;
      lane_hits_ += bit_count(due);
      lo_ = now + 1;
    }
    while (!heap_.empty() && heap_.front().at <= now) {
      const Entry top = heap_.front();
      pop();
      if (slots_[top.core] == top.at) due |= std::uint64_t{1} << top.core;
    }
    // Entries filed beyond the window before it reached them.
    while (!heap_.empty() && in_window(heap_.front().at)) {
      const Entry top = heap_.front();
      pop();
      if (slots_[top.core] == top.at) {
        lanes_[top.at % kLanes] |= std::uint64_t{1} << top.core;
        occupied_ |= std::uint64_t{1} << (top.at % kLanes);
      }
    }
    return due;
  }

  /// First cycle of the wheel's window, [window_lo(), window_lo() + kWindow).
  Cycle window_lo() const { return lo_; }
  bool in_window(Cycle at) const { return at - lo_ < kWindow; }
  /// Members of lane `i` (bit c = core c), and the non-empty lanes.
  std::uint64_t lane(std::uint32_t i) const { return lanes_[i]; }
  std::uint64_t occupied() const { return occupied_; }
  /// Heap entries set() has pushed, and cores take_due() took from the wheel.
  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t lane_hits() const { return lane_hits_; }

  /// Test seam for the invariant checker: overwrite `core`'s slot without
  /// refiling it, as a write that bypassed set() would leave it. Never
  /// called by the simulator.
  void debug_overwrite_slot(std::uint32_t core, Cycle at) { slots_[core] = at; }

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
      if (slots_[c] != kNeverCycle && !in_window(slots_[c]))
        heap_.push_back(Entry{slots_[c], c});
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Cycle> slots_;
  std::vector<Entry> heap_;
  std::uint64_t lanes_[kLanes] = {};
  std::uint64_t occupied_ = 0;
  /// Before the first take_due() the window starts at cycle 0, where
  /// load_program files every core.
  Cycle lo_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t lane_hits_ = 0;
};

}  // namespace armbar::sim

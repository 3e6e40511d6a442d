// Producer-consumer model on the simulator (paper §4, Fig 6a-c).
//
// The producer is Algorithm 2 with both barrier sites configurable; the
// consumer uses light load barriers throughout (the paper fixes the
// consumer and varies the producer). Pilot variants implement Algorithms
// 3 & 4 in micro-ISA: each ring slot is a {data word, flag word} pilot
// channel, per-slot channel state lives in core-private memory, and the
// shared hash pool is read-only.
//
// Messages are the producer's iteration index; the consumer accumulates
// received values so runs are checkable (sum must equal n(n-1)/2).
#pragma once

#include <cstdint>
#include <string>

#include "sim/machine.hpp"
#include "simprog/abstract_model.hpp"

namespace armbar::simprog {

/// The Pilot hash pool (Algorithms 3-6): kPoolSize nonzero seeds at
/// kHashPool, the same on every run, shared by Pilot channels and locks.
inline constexpr Addr kHashPool = 0x60000;
inline constexpr std::uint32_t kPoolSize = 64;
void fill_hash_pool(sim::Machine& m);

/// Producer barrier sites (Algorithm 2 lines 3 and 5).
struct ProdConsCombo {
  OrderChoice avail = OrderChoice::kDmbLd;     ///< line 3
  OrderChoice publish = OrderChoice::kDmbSt;   ///< line 5; kStlr makes the
                                               ///< counter store an STLR
  bool consumer_barriers = true;               ///< consumer's load barriers
  std::string name() const;
};

struct ProdConsResult {
  double msgs_per_sec = 0;   ///< messages through the channel per second
  std::uint64_t checksum = 0;
  bool checksum_ok = false;
};

/// Run the barrier-based producer-consumer for `msgs` messages between
/// cores `prod` and `cons`. `produce_work` = nops inside produceMsg().
ProdConsResult run_prodcons(const sim::PlatformSpec& spec, ProdConsCombo combo,
                            std::uint32_t msgs, std::uint32_t produce_work,
                            CoreId prod, CoreId cons);

/// Run the Pilot producer-consumer (§4.4): the publish barrier and the
/// consumer's matching load barrier are gone; flow-control counter + its
/// barrier remain.
ProdConsResult run_prodcons_pilot(const sim::PlatformSpec& spec,
                                  std::uint32_t msgs, std::uint32_t produce_work,
                                  CoreId prod, CoreId cons);

/// Fig 6c: batched messages of `batch_words` 64-bit slices. Returns
/// messages/sec for the best-barrier baseline (DMB ld - DMB st) and for
/// Pilot applied per slice.
struct BatchResult {
  double baseline = 0;
  double pilot = 0;
};
BatchResult run_batch(const sim::PlatformSpec& spec, std::uint32_t batch_words,
                      std::uint32_t msgs, CoreId prod, CoreId cons);

}  // namespace armbar::simprog

// Seeded random litmus-program generator (ISSUE 4).
//
// Draws small multi-threaded micro-ISA programs from a deterministic
// xoshiro stream, biased toward the shapes where ARM ordering bugs hide:
// message-passing (write/write vs read/read), store-buffering (write/read
// vs write/read) and IRIW (independent writers, disagreeing readers)
// skeletons, each perturbed with random barrier placement/removal, extra
// accesses, and the three dependency idioms (eor-self address dependency,
// data dependency through the stored value, forward-branch control
// dependency).
//
// Invariants the rest of the pipeline relies on:
//   * same seed (and options) -> byte-identical program;
//   * straight-line control flow: only forward branches, every thread ends
//     in halt, so both the reference model's path enumeration and the
//     simulator terminate;
//   * only model-supported ops (no WFE/LDXR/STXR/SWP);
//   * every store carries a distinct value, so reads-from is unambiguous
//     when debugging a mismatch;
//   * every loaded register is observed, and every touched address is in
//     observe_mem — maximum discrimination between executions.
#pragma once

#include <cstdint>

#include "model/model.hpp"

namespace armbar::fuzz {

struct GenOptions {
  // Defaults raised in ISSUE 5: the POR engine makes deeper/wider programs
  // affordable, so campaigns now default to the generator's full range.
  // Raising them changes the program every seed maps to — re-pin any seed
  // ci.sh or a repro bundle depends on when touching these.
  std::uint32_t max_threads = 5;         ///< >= 2; 4+ enables IRIW shapes
  std::uint32_t max_ops_per_thread = 8;  ///< memory/barrier ops in the body
  /// Percent of cases drawn as lock-handoff skeletons (ISSUE 9): a holder
  /// whose critical section stores data and loads a probe word, a release
  /// edge drawn from the strong/weakened/insufficient menu (dmb ish, STLR,
  /// dmb st, nothing), a grant store, and a waiter with a randomized
  /// acquire edge and a ctrl-dep-guarded critical section — the exact
  /// shape family the lockver harness verifies deliberately. MUST stay 0
  /// by default: the roll is only drawn when the knob is on, so every
  /// pinned seed (ci.sh bit-identity gate, golden corpus) is unaffected.
  std::uint32_t lock_shape_pct = 0;
};

/// Generate the program for `seed`. Deterministic; the returned program's
/// name embeds the seed ("fuzz-<seed>").
model::ConcurrentProgram generate(std::uint64_t seed,
                                  const GenOptions& opts = {});

}  // namespace armbar::fuzz

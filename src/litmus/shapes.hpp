// Table 1 shape registry: every litmus shape the paper's Table 1 (and the
// supporting §2 evidence) relies on. Each row is one litmus program: the
// simulator sweeps `sim`, and the axiomatic reference checker enumerates
// `model_prog`, which is `sim.prog` itself for every shape but MP.
//
// The allowed-outcome tables are *derived*: derive_allowed() asks the
// reference model for the exact allowed set, and model_allows_weak()
// replaces hand-coded "OBSERVED (allowed)" / "never (forbidden)"
// expectations. The golden corpus (litmus/golden.hpp) pins both the model
// set and the simulator's observed set per platform preset.
//
// The one asymmetry is MP's consumer: the simulator polls (a backward
// branch the model does not enumerate) and samples load values at issue,
// which orders its reads. Its model form is the straight-line
// `ldr flag; dmb.ld; ldr data` — at least as strong as the poll — and both
// forms observe (flag, data).
//
// The simulator is *stronger* than the architecture on load-side
// reorderings (LB, S, 2+2W): a shape can be architecturally weak yet never
// weak in the simulator. The golden corpus's `sim` lines record which.
#pragma once

#include <string>
#include <vector>

#include "litmus/litmus.hpp"
#include "model/model.hpp"

namespace armbar::litmus {

/// One Table 1 row: a named litmus shape, its model form and its weak
/// outcome.
struct Table1Shape {
  std::string name;                     ///< e.g. "MP+dmb.st"
  Litmus sim;                           ///< what the simulator sweeps
  model::ConcurrentProgram model_prog;  ///< what the model enumerates
  model::Outcome weak;                  ///< the relaxed outcome
};

/// All registered shapes, in Table 1 order (MP rows first).
const std::vector<Table1Shape>& table1_shapes();

/// Lookup by name; aborts on an unknown shape.
const Table1Shape& table1_shape(const std::string& name);

/// The model-derived allowed set for a shape (the generated replacement for
/// the hand tables). Aborts if the model errors or hits a budget cap —
/// every registered shape must enumerate exactly.
model::OutcomeSet derive_allowed(const Table1Shape& s);

/// Whether the reference model allows the shape's weak outcome. This — not
/// a hand-coded boolean — is what bench/table1_litmus.cpp prints and checks
/// against.
bool model_allows_weak(const Table1Shape& s);

}  // namespace armbar::litmus

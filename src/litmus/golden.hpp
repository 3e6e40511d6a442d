// Golden litmus-outcome corpus (ISSUE 5 satellite).
//
// Every Table 1 shape's allowed-outcome set — and the outcome set the
// timing simulator actually exhibits on each of the four platform presets —
// is pinned as a checked-in text file under tests/litmus/golden/. The
// corpus triangulates three independent sources of truth:
//
//   model (POR engine)  ==  golden file  ==  model (naive oracle)
//   sim observed per platform  ==  golden file, and ⊆ the model set
//
// so a regression in any one of the POR engine, the naive enumerator, the
// shape registry or the simulator shows up as a diff against a reviewed
// artifact instead of a silent drift. Files regenerate via
// `ARMBAR_REGEN_GOLDEN=1 ./test_litmus_golden` (same idiom as the Chrome
// trace golden).
//
// Format (armbar.golden.litmus/v1, line-oriented, '#' comments):
//
//   shape MP+dmb.st
//   weak (1,0)
//   weak-allowed 0
//   model (0,0) (0,23) (1,23)
//   sim kunpeng916 (0,0) (0,23) (1,23)
//   ... one `sim` line per platform preset with enough cores.
#pragma once

#include <map>
#include <set>
#include <string>

#include "litmus/shapes.hpp"
#include "model/model.hpp"

namespace armbar::litmus {

inline constexpr const char* kGoldenSchema = "armbar.golden.litmus/v1";

/// One shape's pinned corpus entry.
struct GoldenEntry {
  std::string shape;
  model::Outcome weak;
  bool weak_allowed = false;  ///< the model allows `weak`
  std::set<model::Outcome> model_allowed;
  /// Platform preset name -> simulator-observed outcomes. Only presets with
  /// >= nthreads cores appear.
  std::map<std::string, std::set<model::Outcome>> sim_observed;
};

/// Enumerate the shape's model set with `mopts` and run its simulator
/// litmus across every platform preset (full skew sweep, no faults).
/// Aborts if the model errors or hits a budget cap — registered shapes
/// must enumerate exactly.
GoldenEntry collect_golden(const Table1Shape& s,
                           const model::ModelOptions& mopts = {});

/// Render an entry in armbar.golden.litmus/v1 form (ends with '\n').
std::string render_golden(const GoldenEntry& e);

/// Parse a v1 file. Returns false (with *err set) on malformed input.
bool parse_golden(const std::string& text, GoldenEntry* out,
                  std::string* err);

/// "MP+dmb.st" -> "MP_dmb_st.golden" (filesystem-safe, collision-free for
/// the registered shape names).
std::string golden_filename(const std::string& shape_name);

}  // namespace armbar::litmus

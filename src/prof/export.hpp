// Snapshot exporters: the `host_prof` report section, collapsed-stack
// output for flamegraph tooling, and an aggregate Chrome trace.
//
// Kept out of armbar_prof (the core registry) because they depend on
// trace::Json while armbar_trace itself links armbar_prof for the
// kTraceEmit hook — this split is what keeps the layering acyclic.
#pragma once

#include <string>

#include "prof/prof.hpp"
#include "trace/json.hpp"

namespace armbar::prof {

inline constexpr const char* kHostProfSchema = "armbar.host_prof/v1";

/// The `host_prof` section of an armbar.bench.report/v2 document:
///   { "schema": "armbar.host_prof/v1",
///     "excluded_from_digests": true,       // host time never enters a
///                                          //   cached value or digest
///     "wall_ns": W, "threads": T,
///     "phases":   {"sim.run": {"count":N,"total_ns":T,"self_ns":S}, ...},
///     "counters": {"sim.instructions": N, ...},
///     "sim_instructions": N,               // present when any sim ran
///     "sim_instructions_per_sec": ips }    //   ips = instrs / sim.run ns
trace::Json host_prof_json(const Snapshot& s);

/// Collapsed-stack text (one "phase;phase;phase <self_ns>" line per tree
/// node with nonzero self time), consumable by standard flamegraph tools.
std::string collapsed_stacks(const Snapshot& s);
bool write_collapsed(const std::string& path, const Snapshot& s);

/// Aggregate Chrome trace_event JSON: the merged calltree laid out as one
/// synthetic timeline (children packed left-to-right inside their parent),
/// viewable at https://ui.perfetto.dev. Durations are real; start offsets
/// are synthetic (this is an aggregate profile, not an event log).
std::string chrome_trace_json(const Snapshot& s);
bool write_chrome(const std::string& path, const Snapshot& s);

}  // namespace armbar::prof

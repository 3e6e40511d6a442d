// The `host_prof` report section: a Snapshot rendered as JSON.
//
// Kept out of armbar_prof (the core registry) because it depends on
// trace::Json while armbar_trace itself links armbar_prof for the
// kTraceEmit hook — this split is what keeps the layering acyclic.
#pragma once

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

}  // namespace armbar::prof

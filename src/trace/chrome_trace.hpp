// Chrome trace_event exporter: turns a Tracer snapshot into the JSON
// object format that chrome://tracing and Perfetto load directly.
//
// Mapping: one simulated cycle = one microsecond of trace time (the `ts`
// unit of the format), pid 0 = the simulated machine, tid = core id. Span
// events (stalls, drains, barrier blocks, transactions) become "X"
// complete events with a duration; instant events become "i".
#pragma once

#include <string>
#include <vector>

#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace armbar::trace {

struct ChromeTraceOptions {
  std::string process_name = "armbar-sim";
  /// Emitted as the op-name resolver for instruction/barrier events; when
  /// empty, the numeric op code is used. The simulator passes sim::to_string.
  std::string (*op_name)(std::uint8_t) = nullptr;
  /// Stall-cause names; taken from the tracer when exporting via a Tracer.
  std::vector<std::string> stall_cause_names;
};

/// Build the trace document ({"traceEvents": [...], ...}).
Json to_chrome_trace(const std::vector<Event>& events,
                     const ChromeTraceOptions& opts = {});

/// Convenience: snapshot + stall-cause names straight from a tracer.
Json to_chrome_trace(const Tracer& tracer, ChromeTraceOptions opts = {});

/// Serialize and write to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const Tracer& tracer,
                        ChromeTraceOptions opts = {});

}  // namespace armbar::trace

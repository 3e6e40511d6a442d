// Entry point of armbar-bench, the one front end for every registered
// experiment:
//
//   armbar-bench --list
//   armbar-bench --filter 'fig3*' --jobs 8 --json
//   armbar-bench --filter fig3_store_store --json --trace
//
// A filter matching exactly one experiment reports it under its own name
// with unprefixed keys and writes <name>.report.json / <name>.trace.json
// by default.
#pragma once

namespace armbar::runner {

/// Parse flags, run the engine, write the report. Returns the process exit
/// code (0 iff every matched experiment passed and all I/O succeeded).
int cli_main(int argc, char** argv);

}  // namespace armbar::runner

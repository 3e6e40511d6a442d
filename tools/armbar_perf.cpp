// armbar-perf — simulator-throughput trend gate over two bench reports.
//
//   $ armbar-perf bench/baselines/BENCH_sim_perf.json BENCH_sim_perf.json
//
// Compares the committed baseline report (first argument) against a fresh
// run (second argument) on the machine-independent `ips_vs_null` ratio —
// simulated-instructions/sec over a null-interpreter loop measured in the
// same process. Host CPU speed cancels out of that ratio, so a baseline
// from one machine gates CI runs on another. Each host_prof phase's share
// of self time in both reports is listed for information only.
//
// Exit 0 when the gate passes, 1 on a regression (or incomparable
// reports), 2 on bad usage / unreadable input.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "prof/perfdiff.hpp"
#include "runner/arg_parser.hpp"
#include "trace/json.hpp"

namespace {

bool read_report(const std::string& path, armbar::trace::Json* doc) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "armbar-perf: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  *doc = armbar::trace::Json::parse(buf.str(), &err);
  if (!err.empty()) {
    std::fprintf(stderr, "armbar-perf: %s: JSON parse error: %s\n",
                 path.c_str(), err.c_str());
    return false;
  }
  return true;
}

/// ArgParser has no double-typed option; these come in as strings.
bool parse_double(const std::string& text, const char* flag, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    std::fprintf(stderr, "armbar-perf: --%s expects a number, got '%s'\n",
                 flag, text.c_str());
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  armbar::runner::ArgParser args(
      "armbar-perf",
      "Compare two armbar.bench.report documents (baseline, current) on the "
      "machine-independent ips_vs_null throughput ratio and host_prof phase "
      "shares. Gate for CI perf trends.");
  armbar::prof::PerfDiffOptions defaults;
  args.add_value("min-ratio", "R",
                 "gate: current ips_vs_null must be >= R x baseline's",
                 std::to_string(defaults.min_rel_ratio));
  args.add_value("min-preset-ratio", "R",
                 "also gate every per-preset *_ips metric, normalized by the "
                 "null loop, at >= R x baseline (0 = off)",
                 std::to_string(defaults.min_preset_ratio));

  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "armbar-perf: %s\n", err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  if (args.positionals().size() != 2) {
    std::fprintf(stderr,
                 "usage: armbar-perf [options] <baseline.json> "
                 "<current.json> (see --help)\n");
    return 2;
  }

  armbar::prof::PerfDiffOptions opts;
  if (!parse_double(args.str("min-ratio"), "min-ratio", &opts.min_rel_ratio) ||
      !parse_double(args.str("min-preset-ratio"), "min-preset-ratio",
                    &opts.min_preset_ratio))
    return 2;

  armbar::trace::Json base, cur;
  if (!read_report(args.positionals()[0], &base) ||
      !read_report(args.positionals()[1], &cur))
    return 2;

  const armbar::prof::PerfDiff diff =
      armbar::prof::diff_reports(base, cur, opts);
  std::fputs(armbar::prof::render(diff, opts).c_str(), stdout);
  return diff.ok ? 0 : 1;
}

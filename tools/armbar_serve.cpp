// armbar-serve — the producer half of the shm channel service.
//
//   $ armbar-serve --kind rbp --channels 2 --records 1000000
//                  --name-file /tmp/bus.name
//
// Creates the segment, runs one producer process per channel, and waits
// until *external* consumers (armbar-load --attach) drain every channel,
// then audits, unlinks and exits. The full shm name is written to
// --name-file up front — attachers poll Segment::attach until the creator
// publishes the ready flag, so the file may briefly name a segment that
// does not exist yet.
//
// The binary doubles as its own re-exec'd worker (maybe_run_worker), like
// every shmsvc tool. SIGINT/SIGTERM kill + reap the fleet, unlink the
// segment, and exit 128+sig.
#include <cstdio>
#include <fstream>
#include <string>

#include "runner/arg_parser.hpp"
#include "shmsvc/service.hpp"

using namespace armbar;

int main(int argc, char** argv) {
  const int worker = shmsvc::maybe_run_worker(argc, argv);
  if (worker >= 0) return worker;

  runner::ArgParser args(
      "armbar-serve",
      "Create a shm channel segment and serve its producer side until "
      "external consumers drain it.");
  args.add_value("kind", "K", "channel kind: q | rb | rbp", "rb");
  args.add_int("channels", "N", "channels in the segment", 1, 1, 16);
  args.add_int("capacity", "N", "ring slots per channel (power of two)", 256,
               2, 1 << 20);
  args.add_int("records", "N", "records to produce per channel", 1 << 20, 1,
               1ll << 32);
  args.add_int("produce-work", "K", "synthetic splitmix rounds per record", 0,
               0, 1 << 20);
  args.add_int("seed", "S", "payload/pilot seed", 0x5eed, 0, INT64_MAX);
  args.add_int("deadline-s", "N", "no-progress watchdog (whole service)", 180,
               1, 86400);
  args.add_value("name", "NAME", "segment base name", "svc");
  args.add_value("name-file", "PATH", "write the full shm name here", "");
  args.add_flag("verbose", "log per-worker lifecycle to stderr");
  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "armbar-serve: %s\n%s", err.c_str(),
                 args.help().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.help().c_str());
    return 0;
  }

  shmsvc::FleetConfig cfg;
  if (!shmsvc::parse_kind(args.str("kind"), &cfg.seg.kind)) {
    std::fprintf(stderr, "armbar-serve: bad --kind '%s' (q | rb | rbp)\n",
                 args.str("kind").c_str());
    return 2;
  }
  cfg.seg.name = args.str("name");
  cfg.seg.channels = static_cast<std::uint32_t>(args.integer("channels"));
  cfg.seg.capacity = static_cast<std::uint32_t>(args.integer("capacity"));
  cfg.seg.records = static_cast<std::uint64_t>(args.integer("records"));
  cfg.seg.seed = static_cast<std::uint64_t>(args.integer("seed"));
  cfg.spawn_consumers = false;
  cfg.consumers_per_channel = 0;
  cfg.tuning.produce_work =
      static_cast<std::uint32_t>(args.integer("produce-work"));
  cfg.deadline_ms = static_cast<std::uint64_t>(args.integer("deadline-s")) * 1000;
  cfg.verbose = args.given("verbose");

  // The name is derived from our pid, so it is known before the segment
  // exists; publish it first so the consumer side can start polling.
  const std::string full = shmsvc::full_segment_name(cfg.seg.name);
  if (!args.str("name-file").empty()) {
    std::ofstream out(args.str("name-file"), std::ios::trunc);
    out << full << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "armbar-serve: cannot write %s\n",
                   args.str("name-file").c_str());
      return 2;
    }
  }
  std::printf("armbar-serve: %s (%s, %u channel%s, %llu records/ch)\n",
              full.c_str(), shmsvc::to_string(cfg.seg.kind), cfg.seg.channels,
              cfg.seg.channels == 1 ? "" : "s",
              static_cast<unsigned long long>(cfg.seg.records));
  std::fflush(stdout);

  volatile std::sig_atomic_t* sig = shmsvc::install_tool_signals();
  shmsvc::Fleet fleet(cfg);
  const shmsvc::FleetResult res = fleet.run([sig] { return *sig != 0; });
  if (res.interrupted) {
    shmsvc::emergency_cleanup();
    return 128 + static_cast<int>(*sig);
  }

  std::printf(
      "armbar-serve: %s — produced %llu, delivered %llu, gaps %llu, "
      "dups %llu in %.2fs\n",
      res.ok ? "drained" : ("FAILED: " + res.error).c_str(),
      static_cast<unsigned long long>(res.produced),
      static_cast<unsigned long long>(res.delivered),
      static_cast<unsigned long long>(res.gaps),
      static_cast<unsigned long long>(res.duplicates), res.seconds);
  if (!res.segments_clean)
    std::fprintf(stderr, "armbar-serve: segment left behind after teardown\n");
  return res.ok && res.segments_clean ? 0 : 1;
}

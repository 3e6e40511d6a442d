// Trace explorer: run the message-passing (MP) shape cross-node on the
// kunpeng916 model with a Tracer attached and print the producer's barrier
// lifecycle cycle by cycle — issue, pipe-block span, store drains, the ACE
// barrier transaction, completion.
//
// The printed spans are the same records Machine's stall accounting is
// built from, so the tool doubles as a self-check: for every core, the
// kBarrier stall spans in the trace must sum exactly to
// CoreStats::stall_cycles[kBarrier]. Exits nonzero if they do not.
//
//   $ ./trace_explorer                # timeline + self-check
//   $ ./trace_explorer --trace=mp.trace.json   # also write a Chrome trace
//                                              # (open in https://ui.perfetto.dev)
#include <cstdio>
#include <string>
#include <vector>

#include "runner/arg_parser.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

using namespace armbar;
using sim::Reg;

namespace {

constexpr Addr kData = 0x1000;
constexpr Addr kFlag = 0x8000;  // separate line from kData
constexpr int kRounds = 4;

// Producer: data = i; DMB ish; flag = i. The DMB is the barrier whose
// lifecycle we dissect.
sim::Program make_producer() {
  sim::Asm a;
  a.movi(sim::X0, kData).movi(sim::X1, kFlag).movi(sim::X2, 0);
  a.label("loop");
  a.addi(sim::X2, sim::X2, 1);
  a.str(sim::X2, sim::X0);
  a.dmb_full();
  a.str(sim::X2, sim::X1);
  a.cmpi(sim::X2, kRounds);
  a.blt("loop");
  a.halt();
  return a.take("mp-producer");
}

// Consumer: poll flag until the last round landed, then read data. The
// polling keeps the flag line bouncing between nodes, which is what makes
// the producer's barrier pay cross-node snoop latencies.
sim::Program make_consumer() {
  sim::Asm a;
  a.movi(sim::X0, kData).movi(sim::X1, kFlag);
  a.label("wait");
  a.ldr(sim::X3, sim::X1);
  a.cmpi(sim::X3, kRounds);
  a.blt("wait");
  a.ldr(sim::X4, sim::X0);
  a.halt();
  return a.take("mp-consumer");
}

const char* core_tag(CoreId c) { return c == 0 ? "P" : "C"; }

std::string op_name(std::uint8_t op) {
  return sim::to_string(static_cast<sim::Op>(op));
}

}  // namespace

int main(int argc, char** argv) {
  runner::ArgParser args(
      "trace_explorer",
      "Print the MP producer's barrier lifecycle on kunpeng916 and check the "
      "trace's barrier stall spans against CoreStats.");
  args.add_optional_value("trace", "PATH",
                          "also write a Chrome trace_event JSON (default "
                          "path: trace_explorer.trace.json)");
  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "trace_explorer: %s\n", err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  if (!args.positionals().empty()) {
    std::fprintf(stderr, "trace_explorer: unexpected argument '%s'\n",
                 args.positionals().front().c_str());
    return 2;
  }
  std::string trace_path = args.str("trace");
  if (args.given("trace") && trace_path.empty())
    trace_path = "trace_explorer.trace.json";

  const sim::PlatformSpec spec = sim::kunpeng916();
  const CoreId producer = 0, consumer = 32;  // cross-node on kunpeng916

  trace::Tracer tracer;
  sim::Machine m(spec);
  m.set_tracer(&tracer);

  const sim::Program prod = make_producer();
  const sim::Program cons = make_consumer();
  m.load_program(producer, prod);
  m.load_program(consumer, cons);
  auto res = m.run({});

  std::printf("MP barrier-lifecycle timeline — %s, producer core %u, "
              "consumer core %u (cross-node)\n",
              spec.name.c_str(), producer, consumer);
  std::printf("producer: data=i; DMB ish; flag=i  x%d rounds — completed in "
              "%llu cycles\n\n",
              kRounds, static_cast<unsigned long long>(res.cycles));

  std::printf("%10s %-4s %s\n", "cycle", "core", "event");
  const auto events = tracer.snapshot();
  for (const auto& e : events) {
    char span[64];
    if (e.end > e.begin)
      std::snprintf(span, sizeof span, "%8llu..%-8llu",
                    static_cast<unsigned long long>(e.begin),
                    static_cast<unsigned long long>(e.end));
    else
      std::snprintf(span, sizeof span, "%8llu          ",
                    static_cast<unsigned long long>(e.begin));
    switch (e.kind) {
      case trace::EventKind::kBarrierIssue:
        std::printf("%s [%s] %s reaches issue (pc %u)\n", span,
                    core_tag(e.core), op_name(e.detail).c_str(), e.pc);
        break;
      case trace::EventKind::kStall:
        // The consumer's poll loop produces thousands of 1-cycle operand
        // stalls; they are in the Chrome trace but would drown the timeline.
        if (e.detail != static_cast<std::uint8_t>(sim::StallCause::kBarrier) &&
            e.end - e.begin < 8)
          break;
        std::printf("%s [%s] pipe blocked: %s (%llu cycles)\n", span,
                    core_tag(e.core),
                    tracer.stall_cause_name(e.detail).c_str(),
                    static_cast<unsigned long long>(e.end - e.begin));
        break;
      case trace::EventKind::kSbEnqueue:
        std::printf("%s [%s] store seq %llu enters SB (addr 0x%llx)\n", span,
                    core_tag(e.core), static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
        break;
      case trace::EventKind::kSbDrainStart:
        std::printf("%s [%s] store seq %llu drains\n", span, core_tag(e.core),
                    static_cast<unsigned long long>(e.a));
        break;
      case trace::EventKind::kSbDrainRetire:
        std::printf("%s [%s] store seq %llu retired (SB residency %llu)\n",
                    span, core_tag(e.core),
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
        break;
      case trace::EventKind::kCohTransfer:
        std::printf("%s [%s] coherence %s on line 0x%llx (%llu cycles)\n",
                    span, core_tag(e.core),
                    trace::to_string(static_cast<trace::CohKind>(e.detail)),
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.end - e.begin));
        break;
      case trace::EventKind::kBarrierTxn:
        std::printf("%s [%s] ACE barrier transaction (%llu cycles)\n", span,
                    core_tag(e.core),
                    static_cast<unsigned long long>(e.end - e.begin));
        break;
      case trace::EventKind::kBarrierComplete:
        std::printf("%s [%s] %s complete — blocked the pipe %llu cycles\n",
                    span, core_tag(e.core), op_name(e.detail).c_str(),
                    static_cast<unsigned long long>(e.end - e.begin));
        break;
      default:
        break;  // instr/line-transition noise: not part of the story
    }
  }

  // ---- self-check: trace spans vs the simulator's own accounting ----
  std::printf("\nself-check: kBarrier stall spans vs CoreStats\n");
  bool ok = tracer.dropped() == 0;
  if (!ok)
    std::printf("  [FAIL] ring dropped %llu events; raise the capacity\n",
                static_cast<unsigned long long>(tracer.dropped()));
  const CoreId cores[] = {producer, consumer};
  for (CoreId c : cores) {
    std::uint64_t span_sum = 0;
    for (const auto& e : events)
      if (e.kind == trace::EventKind::kStall && e.core == c &&
          e.detail == static_cast<std::uint8_t>(sim::StallCause::kBarrier))
        span_sum += e.end - e.begin;
    const std::uint64_t stat =
        m.core(c).stats().stall_cycles[static_cast<int>(sim::StallCause::kBarrier)];
    const bool match = span_sum == stat;
    std::printf("  [%s] core %2u: trace %llu == stats %llu\n",
                match ? "PASS" : "FAIL", c,
                static_cast<unsigned long long>(span_sum),
                static_cast<unsigned long long>(stat));
    ok = ok && match;
  }

  if (!trace_path.empty()) {
    trace::ChromeTraceOptions copts;
    copts.process_name = "armbar-trace_explorer";
    copts.op_name = &op_name;
    if (trace::write_chrome_trace(trace_path, tracer, copts))
      std::printf("\ntrace: %s (open in https://ui.perfetto.dev)\n",
                  trace_path.c_str());
    else {
      std::printf("\n[FAIL] could not write %s\n", trace_path.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

// Simulator self-throughput experiment (ISSUE 6): how fast does the *host*
// chew through simulated instructions, and where does the time go?
//
// Three workload shapes across all four platform presets:
//   * MP producer/consumer — the paper's message-passing kernel on the two
//     most distant cores (cross-node on the server preset): store bursts,
//     dmb.st publishes, a polling consumer. Exercises store-buffer drain,
//     coherence and branch resolution in realistic proportions.
//   * co-heavy deep — every core hammers one shared line with atomic
//     exchanges behind dmb.full. Ownership transfers serialize, so this is
//     the coherence-dominated extreme (and the many-core stress on the
//     64-core kunpeng916 preset).
//   * fresh machines — a short single-core run, each on a newly built
//     64 MiB Machine, timed whole (construct, load, run, destroy) against
//     its Machine::run alone. Every figure point builds its own machine,
//     so the ratio is the fixed cost a sweep pays per point.
//
// Timing is host wall-clock around Machine::run — nothing here goes
// through ctx.cached(): host time must never enter a cached value, and the
// whole point is to re-measure. The CI gate is self-relative and therefore
// machine-independent: simulated-instructions/sec is divided by the ops/s
// of a null interpreter loop (switch dispatch over a real Instr vector,
// measured in the same process), so host CPU speed cancels out. A fast box
// and a slow box report the same ips_vs_null within noise; only a real
// simulator regression moves it.
//
// A prof::Session at the top means the report carries an armbar.host_prof
// section (per-phase ns + derived sim_instructions_per_sec) even without
// --profile; with --profile the engine's outer session wins and this one
// is a no-op.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "experiment_util.hpp"
#include "prof/prof.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"

using namespace armbar;
using runner::ExperimentContext;

namespace {

constexpr Addr kDataAddr = 0x1000;
constexpr Addr kFlagAddr = 0x2000;
constexpr Addr kSharedAddr = 0x3000;

/// Gate floor for ips_vs_null (simulated instr/s over null-loop ops/s).
/// Calibrated for the ISSUE 7 fast-path interpreter: ~2.3e-2 aggregate
/// measured (best-of reps), ~3x headroom for host noise. Deliberately set
/// above the whole pre-fast-path build's ~3.7e-3, so losing the predecoded
/// dispatch or the event-driven scheduler fails the experiment itself, not
/// just the cross-report trend gate.
constexpr double kMinIpsVsNull = 8e-3;

/// Gate ceiling for <preset>_fresh_overhead (a fresh 64 MiB machine's whole
/// life over its run alone). Lazily backed memory keeps it under 1.5x on
/// every preset; backing the whole span up front costs about 1000x.
constexpr double kMaxFreshOverhead = 4.0;

/// MP producer: K publish rounds of data-store / dmb.st / flag-store.
sim::Program mp_producer(std::uint32_t k) {
  using namespace sim;
  Asm a;
  a.movi(X0, kDataAddr).movi(X2, kFlagAddr).movi(X5, k).movi(X3, 0);
  a.label("loop");
  a.addi(X3, X3, 1);
  a.str(X3, X0, 0);
  a.dmb_st();
  a.str(X3, X2, 0);
  a.cmp(X3, X5);
  a.bne("loop");
  a.halt();
  return a.take("sim-perf-mp-producer");
}

/// MP consumer: poll the flag until the final round lands, then the
/// ordered data read.
sim::Program mp_consumer(std::uint32_t k) {
  using namespace sim;
  Asm a;
  a.movi(X0, kDataAddr).movi(X2, kFlagAddr).movi(X5, k);
  a.label("wait");
  a.ldr(X3, X2, 0);
  a.cmp(X3, X5);
  a.bne("wait");
  a.dmb_ld();
  a.ldr(X10, X0, 0);
  a.halt();
  return a.take("sim-perf-mp-consumer");
}

/// Co-heavy kernel: every core runs this, hammering one shared line with
/// atomic exchanges behind full barriers.
sim::Program co_heavy(std::uint32_t iters) {
  using namespace sim;
  Asm a;
  a.movi(X0, kSharedAddr).movi(X5, iters).movi(X3, 0);
  a.label("loop");
  a.addi(X3, X3, 1);
  a.swp(X6, X3, X0);
  a.dmb_full();
  a.cmp(X3, X5);
  a.bne("loop");
  a.halt();
  return a.take("sim-perf-co-heavy");
}

struct Measured {
  bool completed = false;
  std::uint64_t instructions = 0;
  std::uint64_t host_ns = 0;
  double ips() const {
    return host_ns == 0 ? 0.0
                        : static_cast<double>(instructions) * 1e9 /
                              static_cast<double>(host_ns);
  }
};

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

Measured time_run(sim::Machine& m) {
  Measured r;
  const auto t0 = std::chrono::steady_clock::now();
  const sim::RunResult res = m.run(sim::RunConfig{});
  r.host_ns = ns_since(t0);
  r.completed = res.completed;
  for (const sim::CoreStats& s : res.cores) r.instructions += s.instructions;
  return r;
}

/// Null-interpreter baseline: a switch-dispatch sweep over a real Instr
/// vector with none of the machine model behind it. This is the "empty
/// interpreter" cost on this host — the denominator that makes the CI gate
/// machine-independent. Deliberately per-op trivial (register file writes
/// only) so it tracks dispatch + memory-touch cost, not workload content.
std::uint64_t null_loop_pass(const std::vector<sim::Instr>& code,
                             std::uint64_t passes) {
  std::uint64_t regs[32] = {};
  std::uint64_t sink = 0;
  for (std::uint64_t p = 0; p < passes; ++p) {
    for (const sim::Instr& ins : code) {
      switch (ins.op) {
        case sim::Op::kMovImm:
          regs[ins.rd] = static_cast<std::uint64_t>(ins.imm);
          break;
        case sim::Op::kAddImm:
          regs[ins.rd] = regs[ins.rn] + static_cast<std::uint64_t>(ins.imm);
          break;
        case sim::Op::kStr:
        case sim::Op::kLdr:
          sink += regs[ins.rn] + static_cast<std::uint64_t>(ins.imm);
          break;
        case sim::Op::kCmp:
          sink += regs[ins.rn] == regs[ins.rm];
          break;
        case sim::Op::kBne:
          sink += ins.target;
          break;
        default:
          sink += static_cast<std::uint64_t>(ins.op);
          break;
      }
    }
  }
  return sink + regs[3];
}

}  // namespace

ARMBAR_EXPERIMENT(sim_perf, "Perf",
                  "host-side simulator throughput and self-profile "
                  "(report-only; the CI gate is self-relative)") {
  // Local session: profile this experiment even when the engine was not
  // started with --profile. An engine-owned (outer) session wins.
  prof::Session session;

  constexpr std::uint32_t kMpRounds = 4000;
  constexpr std::uint32_t kFreshRounds = 100;
  ctx.param("mp_rounds", std::to_string(kMpRounds));
  ctx.param("fresh_rounds", std::to_string(kFreshRounds));
  ctx.param("profiling",
            prof::compiled_in() ? "enabled" : "compiled out (ARMBAR_PROF_DISABLED)");

  // ---- null-interpreter baseline (best of 5 passes) ----
  // Best-of, not mean: on a contended CI host the minimum is the real
  // dispatch cost, and every simulator measurement below uses the same
  // best-of policy so numerator and denominator share the bias.
  const sim::Program null_prog = mp_producer(kMpRounds);
  constexpr std::uint64_t kNullPasses = 20'000;
  double null_ops_per_sec = 0.0;
  std::uint64_t null_sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      ARMBAR_PROF_SCOPE(kBenchNullLoop);
      null_sink += null_loop_pass(null_prog.code, kNullPasses);
    }
    const std::uint64_t ns = ns_since(t0);
    const double ops = static_cast<double>(kNullPasses) *
                       static_cast<double>(null_prog.code.size());
    if (ns > 0 && ops * 1e9 / static_cast<double>(ns) > null_ops_per_sec)
      null_ops_per_sec = ops * 1e9 / static_cast<double>(ns);
  }
  ctx.param("null_loop_sink", std::to_string(null_sink));  // defeats DCE
  ctx.metric("null_loop_mops", null_ops_per_sec / 1e6);
  ctx.check(null_ops_per_sec > 0, "null interpreter baseline measured");

  // ---- simulator workloads across the Table 2 presets ----
  TextTable t("Host-side simulator throughput (report-only; absolute "
              "numbers are machine-dependent)");
  t.header({"platform", "cores", "workload", "sim instrs", "host ms",
            "M instr/s"});
  std::uint64_t total_instrs = 0;
  std::uint64_t total_ns = 0;
  const sim::ProgramHandle fresh_prog =
      sim::decode_program(mp_producer(kFreshRounds));
  double worst_fresh = 0.0;
  for (const sim::PlatformSpec& spec : sim::all_platforms()) {
    // MP on the two most distant cores: cross-node on kunpeng916.
    // Best-of-5: long enough to average cache effects, but a CI-host
    // preemption mid-run still distorts a single shot.
    const sim::Program prod = mp_producer(kMpRounds);
    const sim::Program cons = mp_consumer(kMpRounds);
    Measured mp;
    for (int rep = 0; rep < 5; ++rep) {
      sim::Machine m(spec, 8u << 20);
      m.load_program(0, prod);
      m.load_program(spec.total_cores() - 1, cons);
      const Measured r = time_run(m);
      if (rep == 0 || r.host_ns < mp.host_ns) mp = r;
    }
    ctx.check(mp.completed, "MP workload completed on " + spec.name);
    ctx.metric(spec.name + "_mp_ips", mp.ips());
    t.row({spec.name, TextTable::num(spec.total_cores(), 0), "MP",
           TextTable::num(static_cast<double>(mp.instructions), 0),
           TextTable::num(static_cast<double>(mp.host_ns) / 1e6, 1),
           TextTable::num(mp.ips() / 1e6, 2)});

    // Co-heavy: every core, one line; iteration count scaled so total
    // contention work stays comparable across 4..64 cores. Predecode once
    // and share the handle across all cores (the intended pattern for
    // homogeneous workloads).
    const std::uint32_t iters = 768 / spec.total_cores();
    const sim::ProgramHandle heavy = sim::decode_program(co_heavy(iters));
    // The co-heavy run finishes in well under a millisecond, so a single
    // timing is mostly scheduler jitter and cold caches: repeat it on fresh
    // machines (the simulated result is identical every time) and keep the
    // fastest rep — best-of-N, like the null loop above, so numerator and
    // denominator carry the same preemption bias. It gets more draws than
    // the null loop because its working set (64 cores of machine state on
    // kunpeng916) refills cold after every preemption, so a clean CFS slice
    // is rarer for it than for the cache-resident null sweep; each extra
    // draw costs well under a millisecond.
    constexpr int kDeepReps = 11;
    std::array<Measured, kDeepReps> reps;
    for (Measured& rep : reps) {
      sim::Machine m(spec, 8u << 20);
      for (std::uint32_t c = 0; c < spec.total_cores(); ++c)
        m.load_program(c, heavy);
      rep = time_run(m);
    }
    const Measured deep = *std::min_element(
        reps.begin(), reps.end(), [](const Measured& a, const Measured& b) {
          return a.host_ns < b.host_ns;
        });
    ctx.check(deep.completed, "co-heavy workload completed on " + spec.name);
    ctx.metric(spec.name + "_deep_ips", deep.ips());
    t.row({spec.name, TextTable::num(spec.total_cores(), 0), "co-heavy",
           TextTable::num(static_cast<double>(deep.instructions), 0),
           TextTable::num(static_cast<double>(deep.host_ns) / 1e6, 1),
           TextTable::num(deep.ips() / 1e6, 2)});

    // Fresh machines: each figure point builds its own 64 MiB Machine for
    // one short run. Time that machine's whole life against the run alone,
    // best-of-N for both as above; the ratio is the per-point fixed cost.
    constexpr int kFreshReps = 16;
    Measured fresh;
    std::uint64_t fresh_life_ns = 0;
    for (int rep = 0; rep < kFreshReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      Measured r;
      {
        sim::Machine m(spec, 64u << 20);
        m.load_program(0, fresh_prog);
        r = time_run(m);
      }
      const std::uint64_t life_ns = ns_since(t0);
      if (rep == 0 || r.host_ns < fresh.host_ns) fresh = r;
      if (rep == 0 || life_ns < fresh_life_ns) fresh_life_ns = life_ns;
    }
    const double fresh_overhead =
        fresh.host_ns == 0 ? 0.0
                           : static_cast<double>(fresh_life_ns) /
                                 static_cast<double>(fresh.host_ns);
    ctx.check(fresh.completed, "fresh-machine run completed on " + spec.name);
    ctx.metric(spec.name + "_fresh_overhead", fresh_overhead);
    worst_fresh = std::max(worst_fresh, fresh_overhead);
    t.row({spec.name, TextTable::num(spec.total_cores(), 0), "fresh 64 MiB",
           TextTable::num(static_cast<double>(fresh.instructions), 0),
           TextTable::num(static_cast<double>(fresh_life_ns) / 1e6, 3),
           TextTable::num(static_cast<double>(fresh.instructions) * 1e3 /
                              static_cast<double>(fresh_life_ns),
                          2)});

    total_instrs += mp.instructions + deep.instructions;
    total_ns += mp.host_ns + deep.host_ns;
  }

  const double sim_ips = total_ns == 0
                             ? 0.0
                             : static_cast<double>(total_instrs) * 1e9 /
                                   static_cast<double>(total_ns);
  const double ips_vs_null =
      null_ops_per_sec == 0 ? 0.0 : sim_ips / null_ops_per_sec;
  ctx.metric("sim_ips", sim_ips);
  ctx.metric("ips_vs_null", ips_vs_null);
  ctx.check(sim_ips > 0, "aggregate simulator throughput measured");
  ctx.check(ips_vs_null >= kMinIpsVsNull,
            "self-relative throughput ips_vs_null >= " +
                std::to_string(kMinIpsVsNull) + " (measured " +
                std::to_string(ips_vs_null) + ")");
  ctx.check(worst_fresh <= kMaxFreshOverhead,
            "fresh 64 MiB machine's whole life <= " +
                TextTable::num(kMaxFreshOverhead, 0) +
                "x its run on every preset (worst " +
                TextTable::num(worst_fresh, 2) + "x)");

  t.note("ips_vs_null = sim instr/s over the in-process null-interpreter");
  t.note("ops/s; host CPU speed cancels, so the CI gate on it is");
  t.note("machine-independent (tools/armbar-perf diffs two reports)");
  t.note("fresh_overhead = a fresh 64 MiB machine's whole life over its run");
  t.print();
}

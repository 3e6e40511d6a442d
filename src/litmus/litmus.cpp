#include "litmus/litmus.hpp"

#include <sstream>
#include <tuple>
#include <utility>

#include "common/check.hpp"

namespace armbar::litmus {

using sim::Asm;
using sim::Machine;
using sim::Op;
using namespace sim;  // registers X0..X30

std::string LitmusReport::str() const {
  std::ostringstream os;
  os << runs << " runs, " << histogram.size() << " distinct outcomes\n";
  for (const auto& [o, n] : histogram) {
    os << "  {";
    for (std::size_t i = 0; i < o.size(); ++i) os << (i ? "," : "") << o[i];
    os << "} x" << n << "\n";
  }
  return os.str();
}

LitmusReport run_litmus(const Litmus& test, const LitmusConfig& cfg) {
  const model::ConcurrentProgram& prog = test.prog;
  const std::size_t nthreads = prog.threads.size();
  ARMBAR_CHECK(test.skew_at.size() == nthreads);
  ARMBAR_CHECK(cfg.binding.size() == nthreads);

  // Outcome slots name threads; the machine reads the cores they run on.
  std::vector<std::pair<CoreId, Reg>> observe;
  for (const auto& [t, reg] : prog.observe_regs)
    observe.emplace_back(cfg.binding.at(t), reg);

  std::vector<std::uint32_t> skews(nthreads, 0);
  LitmusReport report;

  // Enumerate the cartesian product of per-thread skews.
  while (true) {
    Machine m(cfg.platform, 1u << 20);
    m.set_tso(cfg.tso);
    for (const auto& [addr, v] : prog.init) m.mem().poke(addr, v);
    for (std::size_t t = 0; t < nthreads; ++t)
      m.load_program(cfg.binding[t], insert_nops(prog.threads[t],
                                                 test.skew_at[t], skews[t]));

    RunConfig rc;
    rc.max_cycles = cfg.max_cycles;
    if (cfg.fault.enabled()) rc.fault = &cfg.fault;
    rc.verify_every = cfg.verify_every;
    auto r = m.run(rc);
    ARMBAR_CHECK_MSG(r.completed, "litmus run timed out");
    ++report.histogram[m.extract_state(observe, prog.observe_mem)];
    ++report.runs;

    // Advance the skew odometer.
    std::size_t i = 0;
    for (; i < nthreads; ++i) {
      skews[i] += cfg.skew_step;
      if (skews[i] <= cfg.max_skew) break;
      skews[i] = 0;
    }
    if (i == nthreads) break;
  }
  return report;
}

namespace {

constexpr Addr kData = 0x1000;   // line A
constexpr Addr kFlag = 0x2000;   // line B
constexpr Addr kX = 0x3000;
constexpr Addr kY = 0x4000;

Litmus start(std::string name,
             std::vector<std::pair<Addr, std::uint64_t>> init) {
  Litmus t;
  t.prog.name = std::move(name);
  t.prog.init = std::move(init);
  return t;
}

/// Appends `a`'s program as the next thread, skewed before pc `skew_at`.
void add_thread(Litmus& t, Asm& a, std::uint32_t skew_at, std::string name) {
  t.prog.threads.push_back(a.take(std::move(name)));
  t.skew_at.push_back(skew_at);
}

void emit_barrier_op(Asm& a, Op b) {
  if (b != Op::kNop) a.emit({b});
}

}  // namespace

Litmus make_mp(Op producer_barrier) {
  Litmus t = start("MP", {{kData, 0}, {kFlag, 0}});

  // The realistic weak scenario: the producer has the flag line in M
  // (it wrote flag = BUSY earlier), while the consumer holds a clean copy
  // of the data line. The flag store then drains in a couple of cycles but
  // the data store needs a full invalidation round — without a barrier the
  // flag can become visible long before the data. Both warm-ups run before
  // the skew point.
  {
    Asm a;
    a.movi(X0, kData).movi(X2, kFlag).movi(X3, 23).movi(X4, 1);
    a.str(XZR, X2, 0);                      // flag = BUSY: take M ownership
    a.nops(60);                             // let the drain complete
    const std::uint32_t skew_at = a.here();
    a.str(X3, X0, 0);                       // data = 23
    emit_barrier_op(a, producer_barrier);
    a.str(X4, X2, 0);                       // flag = DONE
    a.halt();
    add_thread(t, a, skew_at, "mp-producer");
  }

  // Poll-style consumer: samples flag and data every iteration so the pair
  // is captured within a couple of cycles of each other (the standard MP
  // poll shape; it avoids measuring through the loop-exit mispredict).
  {
    Asm a;
    a.movi(X0, kData).movi(X2, kFlag);
    a.ldr(X9, X0, 0);                       // warm a (soon stale) copy of data
    const std::uint32_t skew_at = a.here();
    a.label("poll");
    a.ldr(X3, X2, 0);                       // flag
    a.ldr(X10, X0, 0);                      // data, sampled 1 cycle later
    a.cbz(X3, "poll");
    a.halt();
    add_thread(t, a, skew_at, "mp-consumer");
  }
  t.prog.observe_regs = {{1, X3}, {1, X10}};
  return t;
}

Litmus make_sb(Op barrier) {
  Litmus t = start("SB", {{kX, 0}, {kY, 0}});
  for (const auto& [mine, other] : {std::pair{kX, kY}, std::pair{kY, kX}}) {
    Asm a;
    a.movi(X0, mine).movi(X1, other).movi(X2, 1);
    const std::uint32_t skew_at = a.here();
    a.str(X2, X0, 0);
    emit_barrier_op(a, barrier);
    a.ldr(X3, X1, 0);
    a.halt();
    add_thread(t, a, skew_at, "sb-thread");
  }
  t.prog.observe_regs = {{0, X3}, {1, X3}};
  return t;
}

Litmus make_sb_rel_acq() {
  // This shape pins the simulator gap the differential fuzzer found (seed
  // 807): LDAR must not be satisfied while an earlier STLR is still
  // awaiting global visibility.
  Litmus t = start("SB+rel-acq", {{kX, 0}, {kY, 0}});
  for (const auto& [mine, other] : {std::pair{kX, kY}, std::pair{kY, kX}}) {
    Asm a;
    a.movi(X0, mine).movi(X1, other).movi(X2, 1);
    const std::uint32_t skew_at = a.here();
    a.stlr(X2, X0, 0);
    a.ldar(X3, X1, 0);
    a.halt();
    add_thread(t, a, skew_at, "sb-rel-acq-thread");
  }
  t.prog.observe_regs = {{0, X3}, {1, X3}};
  return t;
}

Litmus make_corr() {
  Litmus t = start("CoRR", {{kX, 0}});
  {
    Asm a;
    a.movi(X0, kX).movi(X1, 1).movi(X2, 2);
    const std::uint32_t skew_at = a.here();
    a.str(X1, X0, 0);
    a.str(X2, X0, 0);
    a.halt();
    add_thread(t, a, skew_at, "co-writer");
  }
  {
    Asm a;
    a.movi(X0, kX);
    const std::uint32_t skew_at = a.here();
    a.ldr(X3, X0, 0);
    a.ldr(X4, X0, 0);
    a.halt();
    add_thread(t, a, skew_at, "co-reader");
  }
  t.prog.observe_regs = {{1, X3}, {1, X4}};
  return t;
}

Litmus make_coherence() {
  Litmus t = start("CoRR", {{kX, 0}});
  constexpr int kIters = 100;
  {
    Asm a;
    a.movi(X0, kX).movi(X6, kIters).movi(X1, 0);
    const std::uint32_t skew_at = a.here();
    a.label("loop");
    a.addi(X1, X1, 1);
    a.str(X1, X0, 0);  // monotonically increasing values
    a.nops(3);
    a.subi(X6, X6, 1);
    a.cbnz(X6, "loop");
    a.halt();
    add_thread(t, a, skew_at, "co-writer");
  }
  {
    Asm a;
    a.movi(X0, kX).movi(X6, kIters).movi(X7, 0);
    const std::uint32_t skew_at = a.here();
    a.label("loop");
    a.ldr(X1, X0, 0);
    a.ldr(X2, X0, 0);
    a.cmp(X2, X1);
    a.bge("ok");       // same-location reads must not regress
    a.movi(X7, 1);
    a.label("ok");
    a.subi(X6, X6, 1);
    a.cbnz(X6, "loop");
    a.halt();
    add_thread(t, a, skew_at, "co-reader");
  }
  t.prog.observe_regs = {{1, X7}};
  return t;
}

Litmus make_atomicity() {
  Litmus t = start("single-copy-atomicity", {{kX, 0}});
  constexpr int kIters = 100;
  constexpr std::int64_t kA = 0x00000000FFFFFFFFll;
  constexpr std::int64_t kB = static_cast<std::int64_t>(0xFFFFFFFF00000000ull);
  {
    Asm a;
    a.movi(X0, kX).movi(X4, kA).movi(X5, kB).movi(X6, kIters);
    const std::uint32_t skew_at = a.here();
    a.label("loop");
    a.str(X4, X0, 0);
    a.nops(5);
    a.str(X5, X0, 0);
    a.nops(5);
    a.subi(X6, X6, 1);
    a.cbnz(X6, "loop");
    a.halt();
    add_thread(t, a, skew_at, "atomicity-writer");
  }
  {
    Asm a;
    a.movi(X0, kX).movi(X4, kA).movi(X5, kB).movi(X7, 0).movi(X6, kIters);
    const std::uint32_t skew_at = a.here();
    a.label("loop");
    a.ldr(X1, X0, 0);
    a.cbz(X1, "ok");        // initial value
    a.cmp(X1, X4);
    a.beq("ok");
    a.cmp(X1, X5);
    a.beq("ok");
    a.movi(X7, 1);          // torn 64-bit value observed
    a.label("ok");
    a.subi(X6, X6, 1);
    a.cbnz(X6, "loop");
    a.halt();
    add_thread(t, a, skew_at, "atomicity-reader");
  }
  t.prog.observe_regs = {{1, X7}};
  return t;
}

Litmus make_lb(Op barrier) {
  Litmus t = start("LB", {{kX, 0}, {kY, 0}});
  for (const auto& [read_from, write_to] :
       {std::pair{kX, kY}, std::pair{kY, kX}}) {
    Asm a;
    a.movi(X0, read_from).movi(X1, write_to).movi(X2, 1);
    const std::uint32_t skew_at = a.here();
    a.ldr(X3, X0, 0);
    emit_barrier_op(a, barrier);
    a.str(X2, X1, 0);
    a.halt();
    add_thread(t, a, skew_at, "lb-thread");
  }
  t.prog.observe_regs = {{0, X3}, {1, X3}};
  return t;
}

Litmus make_s(Op barrier) {
  Litmus t = start("S", {{kX, 0}, {kY, 0}});
  {
    Asm a;
    a.movi(X0, kX).movi(X1, kY).movi(X2, 2).movi(X3, 1);
    const std::uint32_t skew_at = a.here();
    a.str(X2, X0, 0);                  // X = 2
    emit_barrier_op(a, barrier);
    a.str(X3, X1, 0);                  // Y = 1
    a.halt();
    add_thread(t, a, skew_at, "s-t0");
  }
  {
    Asm a;
    a.movi(X0, kX).movi(X1, kY).movi(X3, 1);
    const std::uint32_t skew_at = a.here();
    a.ldr(X4, X1, 0);                  // ry
    // Data dependency: the stored value depends on the load, so the store
    // cannot drain before the read — the classic S-shape consumer edge.
    a.eor(X5, X4, X4);
    a.add(X5, X3, X5);
    a.str(X5, X0, 0);                  // X = 1 (dependent)
    a.halt();
    add_thread(t, a, skew_at, "s-t1");
  }
  t.prog.observe_regs = {{1, X4}};
  t.prog.observe_mem = {kX};
  return t;
}

Litmus make_2p2w(Op barrier) {
  Litmus t = start("2+2W", {{kX, 0}, {kY, 0}});
  for (const auto& [first, second, v] : {std::tuple{kX, kY, std::int64_t{1}},
                                         std::tuple{kY, kX, std::int64_t{3}}}) {
    Asm a;
    a.movi(X0, first).movi(X1, second).movi(X2, v).movi(X3, v + 1);
    const std::uint32_t skew_at = a.here();
    a.str(X2, X0, 0);
    emit_barrier_op(a, barrier);
    a.str(X3, X1, 0);
    a.halt();
    add_thread(t, a, skew_at, "2p2w-thread");
  }
  t.prog.observe_mem = {kX, kY};
  return t;
}

Litmus make_wrc(Op t1_barrier, Op t2_barrier) {
  Litmus t = start("WRC", {{kX, 0}, {kY, 0}});
  {
    Asm a;
    a.movi(X0, kX).movi(X2, 1);
    const std::uint32_t skew_at = a.here();
    a.str(X2, X0, 0);  // X = 1
    a.halt();
    add_thread(t, a, skew_at, "wrc-t0");
  }
  {
    Asm a;
    a.movi(X0, kX).movi(X1, kY).movi(X2, 1);
    const std::uint32_t skew_at = a.here();
    a.label("spin");
    a.ldr(X3, X0, 0);  // rx: wait until T0's write is visible here
    a.cbz(X3, "spin");
    emit_barrier_op(a, t1_barrier);
    a.str(X2, X1, 0);  // Y = 1
    a.halt();
    add_thread(t, a, skew_at, "wrc-t1");
  }
  {
    Asm a;
    a.movi(X0, kX).movi(X1, kY);
    a.ldr(X9, X0, 0);  // warm a copy of X (the potential stale window)
    const std::uint32_t skew_at = a.here();
    a.label("poll");
    a.ldr(X4, X1, 0);  // ry
    emit_barrier_op(a, t2_barrier);
    a.ldr(X5, X0, 0);  // rx
    a.cbz(X4, "poll");
    a.halt();
    add_thread(t, a, skew_at, "wrc-t2");
  }
  t.prog.observe_regs = {{1, X3}, {2, X4}, {2, X5}};
  return t;
}

}  // namespace armbar::litmus

#include "simprog/prodcons.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace armbar::simprog {

using namespace sim;

namespace {

// Shared memory layout.
constexpr Addr kProdCnt = 0x1000;
constexpr Addr kConsCnt = 0x2000;
constexpr Addr kBuffer = 0x10000;     // slots of 64B (or batch stride)
constexpr Addr kHashPool = 0x60000;   // 64 read-only seeds
constexpr Addr kProdState = 0x70000;  // producer-private pilot state
constexpr Addr kConsState = 0x80000;  // consumer-private pilot state
constexpr std::uint32_t kSlots = 8;   // ring capacity (power of two)
constexpr std::uint32_t kPoolSize = 64;

// Register plan shared by the generators:
//  X0 prodCnt addr   X1 consCnt addr   X2 buffer base  X3 hash pool base
//  X10/X11 private state bases         X19 ring capacity
//  X20 local counter X21 message target X25 checksum accumulator

void emit_slot_addr(Asm& a, Reg idx_src, Reg out, std::uint32_t stride) {
  // out = buffer + (idx & (kSlots-1)) * stride
  a.andi(X7, idx_src, kSlots - 1);
  a.movi(X8, stride);
  a.mul(X7, X7, X8);
  a.add(out, X2, X7);
}

Program make_producer(const ProdConsCombo& combo, std::uint32_t msgs,
                      std::uint32_t work) {
  Asm a;
  a.movi(X0, kProdCnt).movi(X1, kConsCnt).movi(X2, kBuffer);
  a.movi(X19, kSlots).movi(X20, 0);
  a.movi(X5, 0);                             // cached consCnt snapshot
  a.label("loop");
  // Wait for a free slot (Algorithm 2 l.1-2). The consumer counter is
  // cached and only reloaded when the ring looks full — the standard ring
  // optimization, which also keeps the line-3 barrier off the miss path.
  a.sub(X6, X20, X5);
  a.cmp(X6, X19);
  a.blt("have");
  a.label("wait");
  a.ldr(X5, X1, 0);
  a.sub(X6, X20, X5);
  a.cmp(X6, X19);
  a.blt("have");
  a.b("wait");
  a.label("have");
  emit_barrier(a, combo.avail);              // line 3
  emit_slot_addr(a, X20, X9, 64);
  a.nops(work);                              // produceMsg()
  a.str(X20, X9, 0);                         // line 4: fill the slot (RMR)
  if (combo.publish != OrderChoice::kStlr && combo.publish != OrderChoice::kNone)
    emit_barrier(a, combo.publish);          // line 5
  a.addi(X20, X20, 1);
  if (combo.publish == OrderChoice::kStlr) {
    a.stlr(X20, X0, 0);                      // line 6 as a store-release
  } else {
    a.str(X20, X0, 0);                       // line 6
  }
  a.cmpi(X20, msgs);
  a.blt("loop");
  a.halt();
  return a.take("prodcons-producer/" + combo.name());
}

Program make_consumer(bool barriers, std::uint32_t msgs) {
  Asm a;
  a.movi(X0, kProdCnt).movi(X1, kConsCnt).movi(X2, kBuffer);
  a.movi(X20, 0).movi(X25, 0);
  a.movi(X5, 0);                             // cached prodCnt snapshot
  a.label("loop");
  a.cmp(X5, X20);
  a.bgt("have");
  a.label("wait");
  a.ldr(X5, X0, 0);
  a.cmp(X5, X20);
  a.bgt("have");
  a.b("wait");
  a.label("have");
  if (barriers) a.dmb_ld();                  // counter read before data read
  emit_slot_addr(a, X20, X9, 64);
  a.ldr(X6, X9, 0);                          // read the message
  a.add(X25, X25, X6);                       // checksum
  a.addi(X20, X20, 1);
  if (barriers) {
    // Data read before the slot release: a (free) bogus data dependency —
    // the paper's consumer uses "light-weighted load barriers or
    // dependencies" for exactly this edge.
    a.eor(X7, X6, X6);
    a.add(X7, X20, X7);
    a.str(X7, X1, 0);                        // consCnt++ (dependency-carrying)
  } else {
    a.str(X20, X1, 0);                       // consCnt++
  }
  a.cmpi(X20, msgs);
  a.blt("loop");
  a.halt();
  return a.take("prodcons-consumer");
}

// ---- Pilot variants (Algorithms 3 & 4 in micro-ISA) ----

// Producer: flow control stays (counter + line-3 barrier); the slot write
// becomes a pilot send; prodCnt++ keeps the ring bounded but carries no
// ordering duty.
Program make_pilot_producer(std::uint32_t msgs, std::uint32_t work) {
  Asm a;
  a.movi(X0, kProdCnt).movi(X1, kConsCnt).movi(X2, kBuffer);
  a.movi(X3, kHashPool).movi(X10, kProdState).movi(X19, kSlots);
  a.movi(X20, 0);
  a.movi(X5, 0);                             // cached consCnt snapshot
  a.label("loop");
  a.sub(X6, X20, X5);
  a.cmp(X6, X19);
  a.blt("have");
  a.label("wait");
  a.ldr(X5, X1, 0);
  a.sub(X6, X20, X5);
  a.cmp(X6, X19);
  a.blt("have");
  a.b("wait");
  a.label("have");
  a.dmb_ld();                                // the flow-control barrier stays
  emit_slot_addr(a, X20, X9, 64);
  a.nops(work);                              // produceMsg()
  // seed = pool[cnt % kPoolSize]
  a.andi(X12, X20, kPoolSize - 1);
  a.lsli(X12, X12, 3);
  a.ldr_idx(X13, X3, X12);
  a.eor(X16, X20, X13);                      // shuffled = msg ^ seed (l.1)
  // per-slot sender state: old_data at X10+slot*16, flag at +8
  a.andi(X7, X20, kSlots - 1);
  a.lsli(X7, X7, 4);
  a.add(X14, X10, X7);
  a.ldr(X6, X14, 0);                         // old_data
  a.cmp(X16, X6);
  a.beq("collide");
  a.str(X16, X9, 0);                         // data <- shuffled (l.5)
  a.str(X16, X14, 0);                        // old_data <- shuffled (l.6)
  a.b("sent");
  a.label("collide");                        // l.2-3: toggle the flag word
  a.ldr(X8, X14, 8);
  a.eori(X8, X8, 1);
  a.str(X8, X14, 8);
  a.str(X8, X9, 8);
  a.label("sent");
  a.addi(X20, X20, 1);
  a.str(X20, X0, 0);                         // prodCnt++ (flow control only)
  a.cmpi(X20, msgs);
  a.blt("loop");
  a.halt();
  return a.take("prodcons-pilot-producer");
}

// Consumer: detects arrival from the slot itself (Algorithm 4); no load
// barrier needed. consCnt++ keeps flow control.
Program make_pilot_consumer(std::uint32_t msgs) {
  Asm a;
  a.movi(X0, kProdCnt).movi(X1, kConsCnt).movi(X2, kBuffer);
  a.movi(X3, kHashPool).movi(X11, kConsState);
  a.movi(X20, 0).movi(X25, 0);
  a.label("loop");
  emit_slot_addr(a, X20, X9, 64);
  a.andi(X7, X20, kSlots - 1);
  a.lsli(X7, X7, 4);
  a.add(X14, X11, X7);                       // per-slot receiver state
  a.label("poll");
  a.ldr(X5, X9, 0);                          // slot data word
  a.ldr(X6, X14, 0);                         // old_data (private)
  a.cmp(X5, X6);
  a.bne("got_data");
  a.ldr(X8, X9, 8);                          // slot flag word
  a.ldr(X12, X14, 8);                        // old_flag
  a.cmp(X8, X12);
  a.bne("got_flag");
  a.b("poll");
  a.label("got_flag");                       // l.2-4: same word again
  a.str(X8, X14, 8);
  a.mov(X5, X6);
  a.b("fin");
  a.label("got_data");                       // l.1: new data word
  a.str(X5, X14, 0);
  a.label("fin");
  // value = data ^ pool[cnt % kPoolSize] (l.6)
  a.andi(X12, X20, kPoolSize - 1);
  a.lsli(X12, X12, 3);
  a.ldr_idx(X13, X3, X12);
  a.eor(X15, X5, X13);
  a.add(X25, X25, X15);                      // checksum
  a.addi(X20, X20, 1);
  a.str(X20, X1, 0);                         // consCnt++
  a.cmpi(X20, msgs);
  a.blt("loop");
  a.halt();
  return a.take("prodcons-pilot-consumer");
}

// ---- batched messages (Fig 6c) ----

Program make_batch_producer(bool pilot, std::uint32_t words, std::uint32_t msgs,
                            std::uint32_t stride) {
  Asm a;
  a.movi(X0, kProdCnt).movi(X1, kConsCnt).movi(X2, kBuffer);
  a.movi(X3, kHashPool).movi(X10, kProdState).movi(X19, kSlots);
  a.movi(X20, 0);
  a.movi(X5, 0);                             // cached consCnt snapshot
  a.label("loop");
  a.sub(X6, X20, X5);
  a.cmp(X6, X19);
  a.blt("have");
  a.label("wait");
  a.ldr(X5, X1, 0);
  a.sub(X6, X20, X5);
  a.cmp(X6, X19);
  a.blt("have");
  a.b("wait");
  a.label("have");
  a.dmb_ld();
  emit_slot_addr(a, X20, X9, stride);
  if (!pilot) {
    // Baseline DMB ld - DMB st: write all slices, one barrier, publish.
    for (std::uint32_t w = 0; w < words; ++w) {
      a.eori(X6, X20, w);                   // slice value = msg ^ w
      a.str(X6, X9, w * 8);
    }
    a.dmb_st();
    a.addi(X20, X20, 1);
    a.str(X20, X0, 0);
  } else {
    // Pilot per slice: data words [0, 8w), flag words [8*words, 16*words).
    // Sender state per (slot, slice): old at X10 + (slot*words + w)*16.
    // Loop invariants (seed, state base) hoisted out of the slice loop.
    a.andi(X12, X20, kPoolSize - 1);
    a.lsli(X12, X12, 3);
    a.ldr_idx(X13, X3, X12);                // seed for this message
    a.andi(X7, X20, kSlots - 1);
    a.movi(X8, words * 16);
    a.mul(X7, X7, X8);
    a.add(X14, X10, X7);                    // per-slot state base
    for (std::uint32_t w = 0; w < words; ++w) {
      a.eori(X17, X20, w);                  // slice value
      a.eor(X16, X17, X13);                 // shuffled
      a.ldr(X6, X14, w * 16);               // old_data for this slice
      a.cmp(X16, X6);
      a.beq("collide" + std::to_string(w));
      a.str(X16, X9, w * 8);
      a.str(X16, X14, w * 16);
      a.b("sent" + std::to_string(w));
      a.label("collide" + std::to_string(w));
      a.ldr(X8, X14, w * 16 + 8);
      a.eori(X8, X8, 1);
      a.str(X8, X14, w * 16 + 8);
      a.str(X8, X9, 8 * words + w * 8);
      a.label("sent" + std::to_string(w));
    }
    a.addi(X20, X20, 1);
    a.str(X20, X0, 0);
  }
  a.cmpi(X20, msgs);
  a.blt("loop");
  a.halt();
  return a.take(pilot ? "batch-pilot-producer" : "batch-producer");
}

Program make_batch_consumer(bool pilot, std::uint32_t words, std::uint32_t msgs,
                            std::uint32_t stride) {
  Asm a;
  a.movi(X0, kProdCnt).movi(X1, kConsCnt).movi(X2, kBuffer);
  a.movi(X3, kHashPool).movi(X11, kConsState);
  a.movi(X20, 0).movi(X25, 0);
  a.label("loop");
  if (!pilot) {
    a.label("wait");
    a.ldr(X5, X0, 0);
    a.cmp(X5, X20);
    a.bgt("have");
    a.b("wait");
    a.label("have");
    a.dmb_ld();
    emit_slot_addr(a, X20, X9, stride);
    for (std::uint32_t w = 0; w < words; ++w) {
      a.ldr(X6, X9, w * 8);
      a.add(X25, X25, X6);
    }
    a.dmb_ld();
  } else {
    emit_slot_addr(a, X20, X9, stride);
    a.andi(X7, X20, kSlots - 1);
    a.movi(X8, words * 16);
    a.mul(X7, X7, X8);
    a.add(X14, X11, X7);
    // Hoisted: the seed is per-message, shared by every slice.
    a.andi(X12, X20, kPoolSize - 1);
    a.lsli(X12, X12, 3);
    a.ldr_idx(X13, X3, X12);
    for (std::uint32_t w = 0; w < words; ++w) {
      const std::string poll = "poll" + std::to_string(w);
      const std::string gd = "gd" + std::to_string(w);
      const std::string gf = "gf" + std::to_string(w);
      const std::string fin = "fin" + std::to_string(w);
      a.label(poll);
      a.ldr(X5, X9, w * 8);
      a.ldr(X6, X14, w * 16);
      a.cmp(X5, X6);
      a.bne(gd);
      a.ldr(X8, X14, w * 16 + 8);
      a.ldr(X12, X9, 8 * words + w * 8);
      a.cmp(X12, X8);
      a.bne(gf);
      a.b(poll);
      a.label(gf);
      a.str(X12, X14, w * 16 + 8);
      a.mov(X5, X6);
      a.b(fin);
      a.label(gd);
      a.str(X5, X14, w * 16);
      a.label(fin);
      a.eor(X15, X5, X13);
      a.add(X25, X25, X15);
    }
  }
  a.addi(X20, X20, 1);
  a.str(X20, X1, 0);
  a.cmpi(X20, msgs);
  a.blt("loop");
  a.halt();
  return a.take(pilot ? "batch-pilot-consumer" : "batch-consumer");
}

void setup_memory(sim::Machine& m, const sim::PlatformSpec& spec,
                  CoreId prod, CoreId cons) {
  // Hash pool: identical deterministic seeds for both sides.
  Rng rng(0x9e3779b9);
  for (std::uint32_t i = 0; i < kPoolSize; ++i) {
    std::uint64_t s;
    do {
      s = rng.next();
    } while (s == 0);
    m.mem().poke(kHashPool + i * 8, s);
  }
  // NUMA placement: shared state lives on the producer's node.
  m.mem().set_home(0, 1u << 20, spec.node_of(prod));
  (void)cons;
}

ProdConsResult finish(const sim::PlatformSpec& spec, sim::Machine& m,
                      sim::RunResult& r, std::uint32_t msgs, CoreId cons,
                      std::uint64_t expected_checksum) {
  ProdConsResult res;
  ARMBAR_CHECK_MSG(r.completed, "producer-consumer run timed out");
  res.msgs_per_sec =
      sim::RunResult::throughput_per_sec(msgs, r.cycles, spec.freq_ghz);
  res.checksum = m.core(cons).reg(X25);
  res.checksum_ok = res.checksum == expected_checksum;
  return res;
}

}  // namespace

std::string ProdConsCombo::name() const {
  return to_string(avail) + " - " + to_string(publish);
}

ProdConsResult run_prodcons(const sim::PlatformSpec& spec, ProdConsCombo combo,
                            std::uint32_t msgs, std::uint32_t produce_work,
                            CoreId prod, CoreId cons) {
  sim::Machine m(spec, 4u << 20);
  setup_memory(m, spec, prod, cons);
  Program pp = make_producer(combo, msgs, produce_work);
  Program pc = make_consumer(combo.consumer_barriers, msgs);
  m.load_program(prod, pp);
  m.load_program(cons, pc);
  auto r = m.run(sim::RunConfig{.max_cycles = 2'000'000'000ULL});
  const std::uint64_t expect =
      static_cast<std::uint64_t>(msgs) * (msgs - 1) / 2;
  return finish(spec, m, r, msgs, cons, expect);
}

ProdConsResult run_prodcons_pilot(const sim::PlatformSpec& spec,
                                  std::uint32_t msgs, std::uint32_t produce_work,
                                  CoreId prod, CoreId cons) {
  sim::Machine m(spec, 4u << 20);
  setup_memory(m, spec, prod, cons);
  Program pp = make_pilot_producer(msgs, produce_work);
  Program pc = make_pilot_consumer(msgs);
  m.load_program(prod, pp);
  m.load_program(cons, pc);
  auto r = m.run(sim::RunConfig{.max_cycles = 2'000'000'000ULL});
  const std::uint64_t expect =
      static_cast<std::uint64_t>(msgs) * (msgs - 1) / 2;
  return finish(spec, m, r, msgs, cons, expect);
}

BatchResult run_batch(const sim::PlatformSpec& spec, std::uint32_t batch_words,
                      std::uint32_t msgs, CoreId prod, CoreId cons) {
  ARMBAR_CHECK(batch_words >= 1 && batch_words <= 32);
  // Slot stride: data (+flags for pilot), rounded up to a line multiple.
  const std::uint32_t stride =
      ((batch_words * 16 + kCacheLineBytes - 1) / kCacheLineBytes) *
      kCacheLineBytes;

  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < msgs; ++i)
    for (std::uint32_t w = 0; w < batch_words; ++w) expect += i ^ w;

  BatchResult out;
  {
    sim::Machine m(spec, 4u << 20);
    setup_memory(m, spec, prod, cons);
    Program pp = make_batch_producer(false, batch_words, msgs, stride);
    Program pc = make_batch_consumer(false, batch_words, msgs, stride);
    m.load_program(prod, pp);
    m.load_program(cons, pc);
    auto r = m.run(sim::RunConfig{.max_cycles = 2'000'000'000ULL});
    auto res = finish(spec, m, r, msgs, cons, expect);
    ARMBAR_CHECK_MSG(res.checksum_ok, "batch baseline checksum mismatch");
    out.baseline = res.msgs_per_sec;
  }
  {
    sim::Machine m(spec, 4u << 20);
    setup_memory(m, spec, prod, cons);
    Program pp = make_batch_producer(true, batch_words, msgs, stride);
    Program pc = make_batch_consumer(true, batch_words, msgs, stride);
    m.load_program(prod, pp);
    m.load_program(cons, pc);
    auto r = m.run(sim::RunConfig{.max_cycles = 2'000'000'000ULL});
    auto res = finish(spec, m, r, msgs, cons, expect);
    ARMBAR_CHECK_MSG(res.checksum_ok, "batch pilot checksum mismatch");
    out.pilot = res.msgs_per_sec;
  }
  return out;
}

}  // namespace armbar::simprog

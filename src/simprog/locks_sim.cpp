#include "simprog/locks_sim.hpp"

#include "common/check.hpp"
#include "simprog/prodcons.hpp"

namespace armbar::simprog {

using namespace sim;

HandoffEdges handoff_edges(LockFamily f, Strength s, PlantedBug b) {
  using enum OrderChoice;
  static constexpr HandoffEdges kEdges[3][2] = {
      // kStrong                     kWeakened
      {{kDmbLd, kDmbFull, kNone}, {kLdar, kStlr, kNone}},      // ticket
      {{kDmbLd, kDmbFull, kNone}, {kLdar, kStlr, kNone}},      // CNA
      {{kDmbFull, kDmbFull, kDmbLd}, {kLdar, kDmbSt, kLdar}},  // FFWD
  };
  HandoffEdges e = kEdges[static_cast<int>(f)][static_cast<int>(s)];
  switch (b) {
    case PlantedBug::kNone: break;
    case PlantedBug::kDropAcquire: e.acquire = kNone; break;
    case PlantedBug::kDropRelease: e.release = kNone; break;
    case PlantedBug::kDowngradeDmb:
      e.release = f == LockFamily::kFfwd ? kDmbLd : kDmbSt;
      break;
  }
  return e;
}

namespace {

// Shared memory layout.
constexpr Addr kNext = 0x1000;       // ticket dispenser
constexpr Addr kServing = 0x2000;    // now-serving
constexpr Addr kCounter = 0x3000;    // global CS counter (correctness check)
constexpr Addr kCsLines = 0x3040;    // RMW lines follow the counter
constexpr Addr kRoLines = 0x5000;    // read-only traversal lines
constexpr Addr kReqBase = 0x20000;   // FFWD request slots, 128B apart
constexpr Addr kRespBase = 0x30000;  // FFWD response slots, 128B apart
constexpr Addr kServed = 0x40000;    // server-private served[] (8B each)
constexpr Addr kTxState = 0x41000;   // server-private pilot tx state (32B)
constexpr Addr kRxState = 0x50000;   // client-private pilot rx state (32B)
constexpr Addr kTail = 0x70000;      // CC-Synch tail pointer
constexpr Addr kNodes = 0x80000;     // CC-Synch nodes, 192B apart
constexpr Addr kCnaTail = 0x74000;   // CNA tail pointer
constexpr Addr kCnaNodes = 0x90000;  // CNA nodes, 128B apart
constexpr Addr kPrivBase = 0x100000; // per-core private counters

// Critical-section body: RMW `cs_lines` shared lines starting at kCsLines,
// walk `ro` read-only lines, then counter++ (result in `ret_reg`). Scratch
// registers: X29/X30 ONLY — callers keep live state in X10-X28.
void emit_cs(Asm& a, std::uint32_t cs_lines, std::uint32_t ro, Reg ret_reg) {
  a.movi(X29, kCounter);
  for (std::uint32_t j = 0; j < cs_lines; ++j) {
    a.ldr(X30, X29, static_cast<std::int64_t>(kCsLines - kCounter + j * 64));
    a.addi(X30, X30, 1);
    a.str(X30, X29, static_cast<std::int64_t>(kCsLines - kCounter + j * 64));
  }
  if (ro > 0) {
    // Read-only walk (models list traversal); nothing is optimized away in
    // the simulator, so plain loads suffice.
    a.movi(X29, kRoLines);
    for (std::uint32_t j = 0; j < ro; ++j)
      a.ldr(X30, X29, static_cast<std::int64_t>(j * 64));
    a.movi(X29, kCounter);
  }
  a.ldr(ret_reg, X29, 0);
  a.addi(ret_reg, ret_reg, 1);
  a.str(ret_reg, X29, 0);
}

// ---------------- ticket lock ----------------

Program make_ticket_program(const LockWorkload& w, OrderChoice release) {
  const OrderChoice acquire =
      handoff_edges(LockFamily::kTicket, Strength::kStrong).acquire;
  Asm a;
  // X0=next, X1=serving, X3=private counter addr (set per core), X21=iters.
  a.movi(X0, kNext).movi(X1, kServing);
  a.movi(X20, 0);
  a.label("loop");
  a.label("retry");
  a.ldxr(X5, X0);
  a.addi(X6, X5, 1);
  a.stxr(X7, X6, X0);
  a.cbnz(X7, "retry");
  a.label("spin");
  emit_load(a, acquire, X8, X1, 0);
  a.cmp(X8, X5);
  a.beq("got");
  a.wfe();
  a.b("spin");
  a.label("got");
  emit_barrier(a, acquire);           // acquire edge (Table 3: load -> any)
  emit_cs(a, w.cs_lines, w.cs_ro_lines, X9);
  // Private (local) per-thread counter, as in the paper's ticket bench.
  a.ldr(X10, X3, 0);
  a.addi(X10, X10, 1);
  a.str(X10, X3, 0);
  emit_barrier(a, release);           // unlock barrier under test
  a.addi(X8, X5, 1);
  emit_store(a, release, X8, X1, 0);  // now-serving++
  a.nops(w.interval_nops);
  a.addi(X20, X20, 1);
  a.cmpi(X20, w.iters);
  a.blt("loop");
  a.halt();
  return a.take("ticket/" + to_string(release));
}

// ---------------- FFWD (Algorithm 5 / 6) ----------------

Program make_ffwd_server(const LockWorkload& w, const FfwdChoice& c) {
  const std::uint64_t target =
      static_cast<std::uint64_t>(w.threads) * w.iters;
  Asm a;
  a.movi(X0, kReqBase).movi(X1, kRespBase).movi(X2, kServed);
  a.movi(X4, kHashPool).movi(X5, kTxState);
  a.movi(X19, w.threads);
  a.movi(X27, 0);                     // total served
  a.label("outer");
  a.movi(X10, 0);                     // client index
  a.label("client");
  a.lsli(X12, X10, 7);
  a.add(X11, X0, X12);                // req slot
  emit_load(a, c.request_barrier, X13, X11, 0);  // line 1 (LDAR for kLdar)
  a.lsli(X15, X10, 3);
  a.add(X14, X2, X15);
  a.ldr(X16, X14, 0);                 // served[i]
  a.cmp(X13, X16);
  a.beq("next");
  a.str(X13, X14, 0);                 // served[i] = seq (line 3)
  switch (c.request_barrier) {        // line 4
    case OrderChoice::kAddrDep: {
      // Bogus address dependency folded into the arg load below.
      a.eor(X17, X13, X13);
      a.add(X11, X11, X17);
      break;
    }
    case OrderChoice::kCtrlIsb:
      a.eor(X17, X13, X13);
      a.cbnz(X17, "dep_tgt");
      a.label("dep_tgt");
      a.isb();
      break;
    default:
      emit_barrier(a, c.request_barrier);
      break;
  }
  a.ldr(X17, X11, 8);                 // arg (line 5/6 input)
  emit_cs(a, w.cs_lines, w.cs_ro_lines, X18);  // criticalSection -> X18
  a.add(X21, X1, X12);                // resp slot
  if (!c.pilot) {
    a.str(X18, X21, 8);               // resp->ret (line 6)
    emit_barrier(a, c.response_barrier);  // line 7
    emit_store(a, c.response_barrier, X13, X21, 0);  // resp flag (line 8)
  } else {
    // Algorithm 6: shuffle the return value and piggyback it.
    a.lsli(X22, X10, 5);
    a.add(X22, X5, X22);              // tx state: [0] old, [8] flag, [16] cnt
    a.ldr(X23, X22, 16);              // cnt
    a.andi(X24, X23, kPoolSize - 1);
    a.lsli(X24, X24, 3);
    a.ldr_idx(X25, X4, X24);          // seed
    a.addi(X23, X23, 1);
    a.str(X23, X22, 16);
    a.eor(X26, X18, X25);             // shuffled ret
    a.ldr(X24, X22, 0);               // old_data
    a.cmp(X26, X24);
    a.beq("collide");
    a.str(X26, X21, 0);               // data word (one atomic store)
    a.str(X26, X22, 0);
    a.b("responded");
    a.label("collide");
    a.ldr(X24, X22, 8);
    a.eori(X24, X24, 1);
    a.str(X24, X22, 8);
    a.str(X24, X21, 8);               // flag word fallback
    a.label("responded");
  }
  a.addi(X27, X27, 1);
  a.label("next");
  a.addi(X10, X10, 1);
  a.cmp(X10, X19);
  a.blt("client");
  a.movi(X28, static_cast<std::int64_t>(target));
  a.cmp(X27, X28);
  a.blt("outer");
  a.halt();
  return a.take("ffwd-server");
}

Program make_ffwd_client(const LockWorkload& w, const FfwdChoice& c) {
  // Per-core registers set by the harness:
  //   X0 = my req slot, X1 = my resp slot, X5 = my rx state (pilot).
  const OrderChoice reply =
      handoff_edges(LockFamily::kFfwd, Strength::kStrong).reply;
  Asm a;
  a.movi(X4, kHashPool);
  a.movi(X7, 0);                      // request sequence
  a.movi(X20, 0);
  a.label("loop");
  a.str(X20, X0, 8);                  // arg
  a.dmb_st();                         // arg before seq (client side, fixed)
  a.addi(X7, X7, 1);
  a.str(X7, X0, 0);                   // req_seq
  if (!c.pilot) {
    a.label("spin");
    emit_load(a, reply, X8, X1, 0);
    a.cmp(X8, X7);
    a.beq("got");
    a.wfe();
    a.b("spin");
    a.label("got");
    emit_barrier(a, reply);
    a.ldr(X9, X1, 8);                 // ret
  } else {
    a.label("poll");
    a.ldr(X8, X1, 0);                 // data word
    a.ldr(X9, X5, 0);                 // rx old_data
    a.cmp(X8, X9);
    a.bne("gotd");
    a.ldr(X10, X1, 8);                // flag word
    a.ldr(X11, X5, 8);                // rx old_flag
    a.cmp(X10, X11);
    a.bne("gotf");
    a.b("poll");
    a.label("gotf");
    a.str(X10, X5, 8);
    a.mov(X8, X9);
    a.b("val");
    a.label("gotd");
    a.str(X8, X5, 0);
    a.label("val");
    a.ldr(X12, X5, 16);               // rx cnt
    a.andi(X13, X12, kPoolSize - 1);
    a.lsli(X13, X13, 3);
    a.ldr_idx(X14, X4, X13);
    a.addi(X12, X12, 1);
    a.str(X12, X5, 16);
    a.eor(X9, X8, X14);               // ret
  }
  a.nops(w.interval_nops);
  a.addi(X20, X20, 1);
  a.cmpi(X20, w.iters);
  a.blt("loop");
  a.halt();
  return a.take("ffwd-client");
}

// ---------------- CNA (compact NUMA-aware MCS) ----------------
//
// Node layout (128B, 2 lines):
//   [0]  next        [8]  socket
//   [64] grant       [72] sec_head   [80] sec_tail   [88] streak
//
// The lock holder's node carries the secondary-queue state; on handoff the
// unlocker writes the successor's [72..88] before granting [64], so the
// release edge under test orders the whole queue-state transfer. Remote
// waiters detached onto the secondary queue keep spinning on their own
// grant word and are spliced back in front of the main queue when the
// local-handoff streak reaches the cap (or no local waiter remains).
Program make_cna_program(const LockWorkload& w, const CnaChoice& c) {
  // Per-core registers set by the harness:
  //   X1 = my node address, X2 = my socket id.
  Asm a;
  a.movi(X0, kCnaTail);
  a.movi(X22, c.local_handoff_cap);
  a.movi(X20, 0);
  a.label("loop");
  // Re-initialize my node; it is unreferenced between iterations (the
  // previous unlock either swung the tail off it or handed it to a linked
  // successor, so enqueuers never touch it again).
  a.str(XZR, X1, 0);                  // next = 0
  a.str(X2, X1, 8);                   // socket
  a.str(XZR, X1, 64);                 // grant = 0
  a.str(XZR, X1, 72);                 // sec_head (holder state if fast path)
  a.str(XZR, X1, 80);                 // sec_tail
  a.str(XZR, X1, 88);                 // streak
  a.dmb_st();                         // node init before it enters the queue
  a.swp(X6, X1, X0);                  // X6 = predecessor (0: uncontended)
  a.cbz(X6, "locked");
  a.str(X1, X6, 0);                   // pred->next = me
  a.label("spin");
  emit_load(a, c.acquire_barrier, X7, X1, 64);
  a.cbnz(X7, "got");
  a.wfe();
  a.b("spin");
  a.label("got");
  emit_barrier(a, c.acquire_barrier);  // acquire edge under test
  a.label("locked");
  emit_cs(a, w.cs_lines, w.cs_ro_lines, X9);
  // ---- unlock ----
  a.ldr(X13, X1, 0);                  // succ
  a.ldr(X10, X1, 72);                 // sec_head
  a.ldr(X11, X1, 80);                 // sec_tail
  a.ldr(X12, X1, 88);                 // streak
  a.cbnz(X13, "have_succ");
  a.cbnz(X10, "tail_sec");            // no succ but parked remote waiters
  a.label("cas0");                    // try tail: me -> 0
  a.ldxr(X14, X0);
  a.cmp(X14, X1);
  a.bne("wait_link");                 // an enqueuer swapped past me
  a.stxr(X15, XZR, X0);
  a.cbnz(X15, "cas0");
  a.b("after");
  a.label("tail_sec");                // try tail: me -> sec_tail
  a.ldxr(X14, X0);
  a.cmp(X14, X1);
  a.bne("wait_link");
  a.stxr(X15, X11, X0);
  a.cbnz(X15, "tail_sec");
  a.mov(X16, X10);                    // secondary becomes the main queue
  a.movi(X10, 0);
  a.movi(X11, 0);
  a.movi(X12, 0);
  a.b("grant");
  a.label("wait_link");
  a.ldr(X13, X1, 0);
  a.cbz(X13, "wait_link");
  a.label("have_succ");
  a.dmb_ld();                         // succ's fields after its link store
  if (!c.numa_aware) {
    // Plain MCS baseline: strict FIFO handoff, no secondary queue.
    a.mov(X16, X13);
    a.movi(X10, 0);
    a.movi(X11, 0);
    a.movi(X12, 0);
    a.b("grant");
  } else {
    a.cmp(X12, X22);
    a.blt("scan");
    a.cbz(X10, "scan");               // streak capped but nothing parked
    a.str(X13, X11, 0);               // splice: sec_tail->next = succ
    a.mov(X16, X10);                  // fairness handoff to sec_head
    a.movi(X10, 0);
    a.movi(X11, 0);
    a.movi(X12, 0);
    a.b("grant");
    a.label("scan");                  // first same-socket main-queue waiter
    a.mov(X17, X13);                  // cur = succ
    a.movi(X18, 0);                   // prev = 0
    a.label("scanloop");
    a.ldr(X19, X17, 8);               // cur->socket
    a.cmp(X19, X2);
    a.beq("found");
    a.ldr(X25, X17, 0);               // cur->next (0: end, or mid-link)
    a.cbz(X25, "nolocal");
    a.mov(X18, X17);
    a.mov(X17, X25);
    a.b("scanloop");
    a.label("found");
    a.cmp(X17, X13);
    a.bne("detach");
    a.addi(X12, X12, 1);              // succ is local: plain handoff
    a.mov(X16, X13);
    a.b("grant");
    a.label("detach");                // park [succ .. prev] on the secondary
    a.str(XZR, X18, 0);               // prev->next = 0 (cut from main)
    a.cbz(X10, "fresh_sec");
    a.str(X13, X11, 0);               // append: sec_tail->next = succ
    a.b("setsec");
    a.label("fresh_sec");
    a.mov(X10, X13);                  // sec_head = succ
    a.label("setsec");
    a.mov(X11, X18);                  // sec_tail = prev
    a.addi(X12, X12, 1);
    a.mov(X16, X17);                  // handoff to the local waiter
    a.b("grant");
    a.label("nolocal");
    a.cbz(X10, "pass_succ");
    a.str(X13, X11, 0);               // splice secondary in front of succ
    a.mov(X16, X10);
    a.movi(X10, 0);
    a.movi(X11, 0);
    a.movi(X12, 0);
    a.b("grant");
    a.label("pass_succ");
    a.mov(X16, X13);                  // no locals, nothing parked
    a.movi(X12, 0);
  }
  a.label("grant");                   // X16 = next holder; X10/X11/X12 state
  a.str(X10, X16, 72);                // transfer the secondary queue
  a.str(X11, X16, 80);
  a.str(X12, X16, 88);
  emit_barrier(a, c.release_barrier);  // release edge under test
  a.movi(X29, 1);
  emit_store(a, c.release_barrier, X29, X16, 64);
  a.label("after");
  a.nops(w.interval_nops);
  a.addi(X20, X20, 1);
  a.cmpi(X20, w.iters);
  a.blt("loop");
  a.halt();
  return a.take(std::string("cna/") +
                (c.numa_aware ? "numa" : "mcs") + "/" +
                to_string(c.release_barrier));
}

// ---------------- CC-Synch ("DSynch") ----------------
//
// Node layout (192B, 3 lines):
//   [0]  next        [8]  arg
//   [64] wait|pdata  [72] completed|pflag  [80] ret|token
//   [96] tx_old      [104] tx_flag         [112] tx_cnt
//   [128] rx_old     [136] rx_flag         [144] token_seen  [152] rx_cnt
Program make_ccsynch_program(const LockWorkload& w, const CcSynchChoice& c) {
  // Per-core register: X1 = my initial node address. X0 = tail addr.
  Asm a;
  a.movi(X0, kTail).movi(X4, kHashPool);
  a.movi(X22, c.combine_budget);
  a.movi(X20, 0);
  a.label("loop");
  // Prepare the fresh node (X1).
  a.str(XZR, X1, 0);                  // next = 0
  if (!c.pilot) {
    a.movi(X5, 1);
    a.str(X5, X1, 64);                // wait = 1
    a.str(XZR, X1, 72);               // completed = 0
  }
  a.dmb_st();                         // node init before it enters the queue
  a.swp(X6, X1, X0);                  // X6 = previous tail (my announce node)
  a.str(X20, X6, 8);                  // arg
  a.dmb_st();                         // announce before linking
  a.str(X1, X6, 0);                   // next = fresh
  a.mov(X1, X6);                      // recycle: the received node is mine now

  if (!c.pilot) {
    a.label("spin");
    a.ldr(X7, X6, 64);
    a.cbz(X7, "awake");
    a.wfe();
    a.b("spin");
    a.label("awake");
    a.dmb_ld();
    a.ldr(X8, X6, 72);                // completed?
    a.cbz(X8, "combine");
    a.ldr(X24, X6, 80);               // ret
    a.b("after");
  } else {
    a.label("poll");
    a.ldr(X7, X6, 64);                // pilot data
    a.ldr(X8, X6, 128);               // rx_old
    a.cmp(X7, X8);
    a.bne("pgd");
    a.ldr(X9, X6, 72);                // pilot flag
    a.ldr(X10, X6, 136);              // rx_flag
    a.cmp(X9, X10);
    a.bne("pgf");
    a.ldr(X11, X6, 80);               // combiner token
    a.ldr(X12, X6, 144);              // token_seen
    a.cmp(X11, X12);
    a.bne("pcomb");
    a.b("poll");
    a.label("pgf");
    a.str(X9, X6, 136);
    a.mov(X7, X8);
    a.b("pval");
    a.label("pgd");
    a.str(X7, X6, 128);
    a.label("pval");
    a.ldr(X13, X6, 152);              // rx_cnt
    a.andi(X14, X13, kPoolSize - 1);
    a.lsli(X14, X14, 3);
    a.ldr_idx(X15, X4, X14);
    a.addi(X13, X13, 1);
    a.str(X13, X6, 152);
    a.eor(X24, X7, X15);              // ret
    a.b("after");
    a.label("pcomb");
    a.str(X11, X6, 144);              // consume the token
    a.dmb_ld();
  }

  // ---- combiner ----
  a.label("combine");
  a.mov(X15, X6);                     // my announced node (served first)
  a.movi(X11, 0);                     // served count
  a.label("comb");
  a.ldr(X12, X6, 0);                  // next
  a.cbz(X12, "handoff");
  a.cmp(X11, X22);
  a.bge("handoff");
  a.dmb_ld();                         // announce fields after next != 0
  a.ldr(X17, X6, 8);                  // arg (kept live via the sum below)
  emit_cs(a, w.cs_lines, w.cs_ro_lines, X18);
  a.addi(X11, X11, 1);
  a.cmp(X6, X15);
  a.bne("respond");
  a.mov(X24, X18);                    // my own request: result stays local
  a.b("advance");
  a.label("respond");
  if (!c.pilot) {
    a.str(X18, X6, 80);               // ret
    a.movi(X16, 1);
    a.str(X16, X6, 72);               // completed = 1
    emit_barrier(a, c.response_barrier);  // the Fig 7 hotspot barrier
    a.str(XZR, X6, 64);               // wait = 0
  } else {
    a.ldr(X16, X6, 112);              // tx_cnt
    a.andi(X19, X16, kPoolSize - 1);
    a.lsli(X19, X19, 3);
    a.ldr_idx(X21, X4, X19);          // seed
    a.addi(X16, X16, 1);
    a.str(X16, X6, 112);
    a.eor(X23, X18, X21);             // shuffled
    a.ldr(X19, X6, 96);               // tx_old
    a.cmp(X23, X19);
    a.beq("ccollide");
    a.str(X23, X6, 64);               // data word: served + value in one store
    a.str(X23, X6, 96);
    a.b("advance");
    a.label("ccollide");
    a.ldr(X19, X6, 104);
    a.eori(X19, X19, 1);
    a.str(X19, X6, 104);
    a.str(X19, X6, 72);               // flag word fallback
  }
  a.label("advance");
  a.mov(X6, X12);
  a.b("comb");
  a.label("handoff");
  if (!c.pilot) {
    a.dmb_st();
    a.str(XZR, X6, 64);               // wake the owner as the next combiner
  } else {
    a.ldr(X16, X6, 80);
    a.addi(X16, X16, 1);
    a.dmb_st();
    a.str(X16, X6, 80);               // bump the combiner token
  }

  a.label("after");
  a.nops(w.interval_nops);
  a.addi(X20, X20, 1);
  a.cmpi(X20, w.iters);
  a.blt("loop");
  a.halt();
  return a.take("ccsynch");
}

// ---------------- runners ----------------

LockResult finish(const sim::PlatformSpec& spec, Machine& m, RunResult& r,
                  const LockWorkload& w) {
  LockResult res;
  res.cycles = r.cycles;
  for (const auto& cs : r.cores) res.barriers += cs.barriers;
  if (!r.completed) return res;  // correct=false flags the timeout
  const std::uint64_t total = static_cast<std::uint64_t>(w.threads) * w.iters;
  res.acq_per_sec = RunResult::throughput_per_sec(total, r.cycles, spec.freq_ghz);
  res.correct = m.mem().peek(kCounter) == total;
  return res;
}

}  // namespace

LockResult run_ticket(const sim::PlatformSpec& spec, const LockWorkload& w,
                      OrderChoice release_barrier) {
  ARMBAR_CHECK(w.threads >= 1 && w.threads <= spec.total_cores());
  Machine m(spec, 8u << 20);
  Program p = make_ticket_program(w, release_barrier);
  for (CoreId c = 0; c < w.threads; ++c) {
    m.load_program(c, p);
    m.core(c).set_reg(X3, kPrivBase + c * 64);
  }
  auto r = m.run(sim::RunConfig{.max_cycles = 4'000'000'000ULL});
  return finish(spec, m, r, w);
}

LockResult run_ffwd(const sim::PlatformSpec& spec, const LockWorkload& w,
                    const FfwdChoice& choice) {
  ARMBAR_CHECK(w.threads + 1 <= spec.total_cores());
  Machine m(spec, 8u << 20);
  fill_hash_pool(m);
  Program server = make_ffwd_server(w, choice);
  Program client = make_ffwd_client(w, choice);
  m.load_program(0, server);  // core 0 is the dedicated server
  for (CoreId i = 0; i < w.threads; ++i) {
    const CoreId c = i + 1;
    m.load_program(c, client);
    m.core(c).set_reg(X0, kReqBase + i * 128);
    m.core(c).set_reg(X1, kRespBase + i * 128);
    m.core(c).set_reg(X5, kRxState + i * 32);
  }
  auto r = m.run(sim::RunConfig{.max_cycles = 4'000'000'000ULL});
  return finish(spec, m, r, w);
}

LockResult run_cna(const sim::PlatformSpec& spec, const LockWorkload& w,
                   const CnaChoice& choice) {
  ARMBAR_CHECK(w.threads >= 1 && w.threads <= spec.total_cores());
  Machine m(spec, 8u << 20);
  Program p = make_cna_program(w, choice);
  for (CoreId c = 0; c < w.threads; ++c) {
    m.load_program(c, p);
    m.core(c).set_reg(X1, kCnaNodes + c * 128);
    m.core(c).set_reg(X2, spec.node_of(c));
  }
  auto r = m.run(sim::RunConfig{.max_cycles = 4'000'000'000ULL});
  return finish(spec, m, r, w);
}

LockResult run_ccsynch(const sim::PlatformSpec& spec, const LockWorkload& w,
                       const CcSynchChoice& choice) {
  ARMBAR_CHECK(w.threads <= spec.total_cores());
  Machine m(spec, 8u << 20);
  fill_hash_pool(m);
  // Dummy node: owner-less; its first owner combines immediately.
  const Addr dummy = kNodes;
  m.mem().poke(kTail, dummy);
  if (choice.pilot) {
    m.mem().poke(dummy + 80, 1);  // token armed
  }                                // plain: wait word already 0
  Program p = make_ccsynch_program(w, choice);
  for (CoreId c = 0; c < w.threads; ++c) {
    m.load_program(c, p);
    m.core(c).set_reg(X1, kNodes + (c + 1) * 192);  // node 0 is the dummy
  }
  auto r = m.run(sim::RunConfig{.max_cycles = 4'000'000'000ULL});
  return finish(spec, m, r, w);
}

}  // namespace armbar::simprog

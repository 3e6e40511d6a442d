#include "lockver/templates.hpp"

#include "sim/program.hpp"

namespace armbar::lockver {

using namespace sim;
using namespace simprog;

const char* to_string(LockFamily f) {
  switch (f) {
    case LockFamily::kTicket: return "ticket";
    case LockFamily::kCna: return "cna";
    case LockFamily::kFfwd: return "ffwd";
  }
  return "?";
}

const char* to_string(Strength s) {
  return s == Strength::kStrong ? "strong" : "weakened";
}

const char* to_string(PlantedBug b) {
  switch (b) {
    case PlantedBug::kNone: return "none";
    case PlantedBug::kDropAcquire: return "drop-acquire";
    case PlantedBug::kDropRelease: return "drop-release";
    case PlantedBug::kDowngradeDmb: return "downgrade-dmb";
  }
  return "?";
}

bool family_from_string(const std::string& s, LockFamily* out) {
  for (LockFamily f :
       {LockFamily::kTicket, LockFamily::kCna, LockFamily::kFfwd}) {
    if (s == to_string(f)) {
      *out = f;
      return true;
    }
  }
  return false;
}

bool strength_from_string(const std::string& s, Strength* out) {
  for (Strength v : {Strength::kStrong, Strength::kWeakened}) {
    if (s == to_string(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

bool planted_from_string(const std::string& s, PlantedBug* out) {
  for (PlantedBug v : {PlantedBug::kNone, PlantedBug::kDropAcquire,
                       PlantedBug::kDropRelease, PlantedBug::kDowngradeDmb}) {
    if (s == to_string(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

namespace {

// ---------------- ticket ----------------
//
// Pre-assigned tickets: T0 holds (ticket 0), T1 waits on grant 1, T2 on
// grant 2. T0's critical section writes D1 and *reads* D2 — the read is
// what makes a store-only release barrier insufficient. T1's critical
// section writes D2 (so a CS overlap is visible as T0 reading 7) and
// re-publishes now-serving. T2 samples now-serving and reads both data
// words, checking handoff visibility and FIFO transitivity through the
// T0 -> T1 -> T2 grant chain.
//
// Outcome tuple: [rA = T0:[D2], rS = T1:[S], rT = T2:[S],
//                 rD1 = T2:[D1], rD2 = T2:[D2]].
constexpr Addr kTS = 0x100;   // now-serving
constexpr Addr kTD1 = 0x140;  // CS data written by T0
constexpr Addr kTD2 = 0x180;  // CS data written by T1, read by T0's CS

LockScenario make_ticket(const HandoffEdges& e) {
  LockScenario sc;

  {  // T0: holder. CS = {str D1=1; ldr rA <- D2}; release; S=1.
    Asm a;
    a.movi(X1, kTD1).movi(X2, 1).str(X2, X1);
    a.movi(X3, kTD2).ldr(X4, X3);
    a.movi(X5, kTS).movi(X6, 1);
    emit_barrier(a, e.release);
    emit_store(a, e.release, X6, X5);
    a.halt();
    sc.prog.threads.push_back(a.take("ticket-t0"));
  }
  {  // T1: waiter with ticket 1. Grant sample, guarded CS, release S=2.
    Asm a;
    a.movi(X1, kTS);
    emit_load(a, e.acquire, X2, X1);
    emit_barrier(a, e.acquire);
    a.cmpi(X2, 1).bne("skip");
    a.movi(X3, kTD2).movi(X4, 7).str(X4, X3);
    a.movi(X5, 2);
    emit_barrier(a, e.release);
    emit_store(a, e.release, X5, X1);
    a.label("skip").halt();
    sc.prog.threads.push_back(a.take("ticket-t1"));
  }
  {  // T2: waiter with ticket 2 (observer of the whole grant chain).
    Asm a;
    a.movi(X1, kTS);
    emit_load(a, e.acquire, X2, X1);
    emit_barrier(a, e.acquire);
    a.movi(X3, kTD1).ldr(X4, X3);
    a.movi(X5, kTD2).ldr(X6, X5);
    a.halt();
    sc.prog.threads.push_back(a.take("ticket-t2"));
  }

  sc.prog.init = {{kTS, 0}, {kTD1, 0}, {kTD2, 0}};
  sc.prog.observe_regs = {{0, X4}, {1, X2}, {2, X2}, {2, X4}, {2, X6}};

  sc.invariants.push_back(
      {"mutual-exclusion",
       "T0's in-CS read of D2 saw T1's CS write (rA == 7): the release "
       "edge let now-serving become visible before the CS finished, so "
       "two critical sections overlapped",
       [](const model::Outcome& o) { return o[0] == 7; }});
  sc.invariants.push_back(
      {"handoff-visibility",
       "a granted waiter (rT >= 1) missed the previous holder's CS write "
       "(rD1 != 1): acquire/release edges on the grant word are broken",
       [](const model::Outcome& o) { return o[2] >= 1 && o[3] != 1; }});
  sc.invariants.push_back(
      {"fifo-fairness",
       "the ticket-2 waiter (rT == 2) missed part of the CS history "
       "(rD1 != 1 or rD2 != 7): grant transitivity through the FIFO "
       "chain T0 -> T1 -> T2 failed",
       [](const model::Outcome& o) {
         return o[2] == 2 && (o[3] != 1 || o[4] != 7);
       }});
  return sc;
}

// ---------------- CNA ----------------
//
// T0 is the holder unlocking to T1's node: it writes its CS data, writes
// the successor's secondary-queue field (the holder-owned state CNA
// transfers through the handoff), reads the published `next` link and
// dereferences it with an address dependency (the unlocker's queue scan),
// then stores the grant. T1 is the granted waiter: it must see both the
// CS data and the transferred queue state; its own CS write of D2 feeds
// T0's overlap probe. T2 is a concurrent enqueuer publishing its node
// with the mandatory `dmb st` before linking.
//
// Outcome tuple: [rA = T0:[D2], rL = T0:[LINK], rN = T0:[NODE],
//                 rSp = T1:[SPIN], rSec = T1:[SEC], rD = T1:[D1]].
constexpr Addr kCSpin = 0x100;  // grant word in T1's node
constexpr Addr kCSec = 0x140;   // secondary-queue field in T1's node
constexpr Addr kCD1 = 0x180;    // CS data written by T0
constexpr Addr kCD2 = 0x1c0;    // CS data written by T1, read by T0's CS
constexpr Addr kCNode = 0x200;  // T2's node body
constexpr Addr kCLink = 0x240;  // T2's published next pointer

LockScenario make_cna(const HandoffEdges& e) {
  LockScenario sc;

  {  // T0: holder. CS, queue-state transfer, queue scan, grant.
    Asm a;
    a.movi(X1, kCD1).movi(X2, 1).str(X2, X1);
    a.movi(X3, kCD2).ldr(X4, X3);
    a.movi(X5, kCSec).movi(X6, 42).str(X6, X5);
    // Queue scan: read the link, dereference the node through an address
    // dependency (both strengths — dependencies are free).
    a.movi(X7, kCLink).ldr(X8, X7);
    a.eor(X9, X8, X8);
    a.movi(X10, kCNode).add(X10, X10, X9).ldr(X11, X10);
    a.movi(X12, kCSpin).movi(X13, 1);
    emit_barrier(a, e.release);
    emit_store(a, e.release, X13, X12);
    a.halt();
    sc.prog.threads.push_back(a.take("cna-t0"));
  }
  {  // T1: granted waiter; reads queue state + CS data, writes its CS.
    Asm a;
    a.movi(X1, kCSpin);
    emit_load(a, e.acquire, X2, X1);
    emit_barrier(a, e.acquire);
    a.cmpi(X2, 1).bne("skip");
    a.movi(X3, kCSec).ldr(X4, X3);
    a.movi(X5, kCD1).ldr(X6, X5);
    a.movi(X7, kCD2).movi(X8, 7).str(X8, X7);
    a.label("skip").halt();
    sc.prog.threads.push_back(a.take("cna-t1"));
  }
  {  // T2: enqueuer. Node init, dmb st, link publication (fixed edges).
    Asm a;
    a.movi(X1, kCNode).movi(X2, 1).str(X2, X1);
    a.dmb_st();
    a.movi(X3, kCLink).movi(X4, 1).str(X4, X3);
    a.halt();
    sc.prog.threads.push_back(a.take("cna-t2"));
  }

  sc.prog.init = {{kCSpin, 0}, {kCSec, 0},  {kCD1, 0},
                  {kCD2, 0},   {kCNode, 0}, {kCLink, 0}};
  sc.prog.observe_regs = {{0, X4}, {0, X8}, {0, X11},
                          {1, X2}, {1, X4}, {1, X6}};

  sc.invariants.push_back(
      {"mutual-exclusion",
       "the holder's in-CS read of D2 saw the successor's CS write "
       "(rA == 7): the grant became visible before the CS completed",
       [](const model::Outcome& o) { return o[0] == 7; }});
  sc.invariants.push_back(
      {"queue-state-transfer",
       "a granted waiter (rSp == 1) missed the holder's CS write or the "
       "transferred secondary-queue state (rD != 1 or rSec != 42): the "
       "handoff's release/acquire edges are broken",
       [](const model::Outcome& o) {
         return o[3] == 1 && (o[4] != 42 || o[5] != 1);
       }});
  sc.invariants.push_back(
      {"enqueue-publication",
       "the unlocker followed a published next link (rL == 1) to an "
       "uninitialized node (rN != 1): the enqueue-side dmb st or the "
       "scan's address dependency is broken",
       [](const model::Outcome& o) { return o[1] == 1 && o[2] != 1; }});
  return sc;
}

// ---------------- FFWD ----------------
//
// One client round trip against the dedicated server (Algorithm 5): the
// client publishes {arg, request-flag} with the fixed client-side
// `dmb st`, then polls the response flag (the reply edge) and reads the
// return value. The server samples the request flag (the line-4 acquire
// edge), reads the argument, runs the CS, and publishes {return,
// response-flag} across the line-7 release edge — a store->store path,
// which is exactly why the paper's Table 3 can weaken it to `dmb st`.
//
// Outcome tuple: [rF = T0:[RESP], rV = T0:[RET],
//                 rR = T1:[REQ],  rArg = T1:[ARG]].
constexpr Addr kFReq = 0x100;
constexpr Addr kFArg = 0x140;
constexpr Addr kFRet = 0x180;
constexpr Addr kFResp = 0x1c0;

LockScenario make_ffwd(const HandoffEdges& e) {
  LockScenario sc;

  {  // T0: client. Request publication (fixed), response poll (clean
     // acquire edge in both strengths; server-side bugs only).
    Asm a;
    a.movi(X1, kFArg).movi(X2, 9).str(X2, X1);
    a.dmb_st();
    a.movi(X3, kFReq).movi(X4, 1).str(X4, X3);
    a.movi(X5, kFResp);
    emit_load(a, e.reply, X6, X5);
    emit_barrier(a, e.reply);
    a.movi(X7, kFRet).ldr(X8, X7);
    a.halt();
    sc.prog.threads.push_back(a.take("ffwd-client"));
  }
  {  // T1: server. Line-4 acquire edge, CS, line-7 release edge.
    Asm a;
    a.movi(X1, kFReq);
    emit_load(a, e.acquire, X2, X1);
    emit_barrier(a, e.acquire);
    a.movi(X3, kFArg).ldr(X4, X3);
    a.cmpi(X2, 1).bne("skip");
    a.movi(X5, kFRet).movi(X6, 7).str(X6, X5);
    emit_barrier(a, e.release);
    a.movi(X7, kFResp).movi(X8, 1);
    emit_store(a, e.release, X8, X7);
    a.label("skip").halt();
    sc.prog.threads.push_back(a.take("ffwd-server"));
  }

  sc.prog.init = {{kFReq, 0}, {kFArg, 0}, {kFRet, 0}, {kFResp, 0}};
  sc.prog.observe_regs = {{0, X6}, {0, X8}, {1, X2}, {1, X4}};

  sc.invariants.push_back(
      {"request-payload",
       "the server saw the request flag (rR == 1) but not the argument "
       "(rArg != 9): the line-4 acquire edge is broken, so the critical "
       "section can run on stale inputs",
       [](const model::Outcome& o) { return o[2] == 1 && o[3] != 9; }});
  sc.invariants.push_back(
      {"response-payload",
       "the client saw the response flag (rF == 1) but not the return "
       "value (rV != 7): the line-7 release edge is broken",
       [](const model::Outcome& o) { return o[0] == 1 && o[1] != 7; }});
  return sc;
}

}  // namespace

LockScenario make_scenario(LockFamily f, Strength s, PlantedBug b) {
  const HandoffEdges e = handoff_edges(f, s, b);
  LockScenario sc;
  switch (f) {
    case LockFamily::kTicket: sc = make_ticket(e); break;
    case LockFamily::kCna: sc = make_cna(e); break;
    case LockFamily::kFfwd: sc = make_ffwd(e); break;
  }
  sc.handoff_dmbs = e.dmbs();
  sc.family = f;
  sc.strength = s;
  sc.planted = b;
  sc.name = std::string(to_string(f)) + "/" + to_string(s);
  if (b != PlantedBug::kNone) sc.name += std::string("+") + to_string(b);
  sc.prog.name = "lockver/" + sc.name;
  return sc;
}

std::vector<LockScenario> all_clean_scenarios() {
  std::vector<LockScenario> out;
  for (LockFamily f :
       {LockFamily::kTicket, LockFamily::kCna, LockFamily::kFfwd})
    for (Strength s : {Strength::kStrong, Strength::kWeakened})
      out.push_back(make_scenario(f, s));
  return out;
}

bool scenario_by_name(const std::string& name, LockScenario* out) {
  const std::size_t slash = name.find('/');
  if (slash == std::string::npos) return false;
  const std::size_t plus = name.find('+', slash);
  LockFamily f;
  Strength s;
  PlantedBug b = PlantedBug::kNone;
  if (!family_from_string(name.substr(0, slash), &f)) return false;
  const std::string strength =
      plus == std::string::npos ? name.substr(slash + 1)
                                : name.substr(slash + 1, plus - slash - 1);
  if (!strength_from_string(strength, &s)) return false;
  if (plus != std::string::npos &&
      !planted_from_string(name.substr(plus + 1), &b))
    return false;
  *out = make_scenario(f, s, b);
  return true;
}

}  // namespace armbar::lockver

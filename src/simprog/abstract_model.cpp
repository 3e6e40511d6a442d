#include "simprog/abstract_model.hpp"

#include "common/check.hpp"

namespace armbar::simprog {

using namespace sim;  // registers

std::string to_string(OrderChoice c) {
  switch (c) {
    case OrderChoice::kNone: return "No Barrier";
    case OrderChoice::kDmbFull: return "DMB full";
    case OrderChoice::kDmbSt: return "DMB st";
    case OrderChoice::kDmbLd: return "DMB ld";
    case OrderChoice::kDsbFull: return "DSB full";
    case OrderChoice::kDsbSt: return "DSB st";
    case OrderChoice::kDsbLd: return "DSB ld";
    case OrderChoice::kIsb: return "ISB";
    case OrderChoice::kLdar: return "LDAR";
    case OrderChoice::kLdapr: return "LDAPR";
    case OrderChoice::kStlr: return "STLR";
    case OrderChoice::kCtrlIsb: return "CTRL+ISB";
    case OrderChoice::kCtrl: return "CTRL";
    case OrderChoice::kDataDep: return "DATA DEP";
    case OrderChoice::kAddrDep: return "ADDR DEP";
  }
  return "?";
}

void emit_barrier(Asm& a, OrderChoice c) {
  switch (c) {
    case OrderChoice::kDmbFull: a.dmb_full(); break;
    case OrderChoice::kDmbSt: a.dmb_st(); break;
    case OrderChoice::kDmbLd: a.dmb_ld(); break;
    case OrderChoice::kDsbFull: a.dsb_full(); break;
    case OrderChoice::kDsbSt: a.dsb_st(); break;
    case OrderChoice::kDsbLd: a.dsb_ld(); break;
    case OrderChoice::kIsb: a.isb(); break;
    default: break;  // dependencies/acquire-release are not standalone
  }
}

void emit_load(Asm& a, OrderChoice c, Reg rd, Reg rn, std::int64_t off) {
  switch (c) {
    case OrderChoice::kLdar: a.ldar(rd, rn, off); break;
    case OrderChoice::kLdapr: a.ldapr(rd, rn, off); break;
    default: a.ldr(rd, rn, off); break;
  }
}

void emit_store(Asm& a, OrderChoice c, Reg rs, Reg rn, std::int64_t off) {
  if (c == OrderChoice::kStlr) {
    a.stlr(rs, rn, off);
  } else {
    a.str(rs, rn, off);
  }
}

bool is_plain_barrier(OrderChoice c) {
  switch (c) {
    case OrderChoice::kDmbFull: case OrderChoice::kDmbSt:
    case OrderChoice::kDmbLd: case OrderChoice::kDsbFull:
    case OrderChoice::kDsbSt: case OrderChoice::kDsbLd:
    case OrderChoice::kIsb:
      return true;
    default:
      return false;
  }
}

Program make_intrinsic_model(OrderChoice barrier, std::uint32_t nops,
                             std::uint32_t iters) {
  ARMBAR_CHECK(barrier == OrderChoice::kNone || is_plain_barrier(barrier));
  Asm a;
  a.movi(X20, 0);
  a.label("loop");
  emit_barrier(a, barrier);
  a.nops(nops);
  a.addi(X20, X20, 1);
  a.cmpi(X20, iters);
  a.blt("loop");
  a.halt();
  return a.take("intrinsic/" + to_string(barrier));
}

Program make_store_store_model(OrderChoice choice, BarrierLoc loc,
                               std::uint32_t nops, std::uint32_t iters,
                               Addr buf_a, Addr buf_b) {
  // Algorithm 1 with str/str. STLR replaces the second store (no location);
  // everything else is a barrier at loc 1 or loc 2.
  Asm a;
  a.movi(X0, static_cast<std::int64_t>(buf_a));
  a.movi(X1, static_cast<std::int64_t>(buf_b));
  a.movi(X20, 0);
  a.movi(X3, 0x1111);
  a.movi(X4, 0x2222);
  a.label("loop");
  a.addi(X0, X0, 64);
  a.addi(X1, X1, 64);
  a.str(X3, X0, 0);                                   // first store (RMR)
  if (loc == BarrierLoc::kLoc1) emit_barrier(a, choice);
  a.nops(nops);
  if (loc == BarrierLoc::kLoc2) emit_barrier(a, choice);
  emit_store(a, choice, X4, X1, 0);                   // STLR or plain
  a.addi(X20, X20, 1);
  a.cmpi(X20, iters);
  a.blt("loop");
  a.halt();
  return a.take("store-store/" + to_string(choice));
}

Program make_load_store_model(OrderChoice choice, BarrierLoc loc,
                              std::uint32_t nops, std::uint32_t iters,
                              Addr buf_a, Addr buf_b) {
  Asm a;
  a.movi(X0, static_cast<std::int64_t>(buf_a));
  a.movi(X1, static_cast<std::int64_t>(buf_b));
  a.movi(X20, 0);
  a.movi(X4, 0x2222);
  a.label("loop");
  a.addi(X0, X0, 64);
  a.addi(X1, X1, 64);
  emit_load(a, choice, X3, X0, 0);                    // the RMR
  if (loc == BarrierLoc::kLoc1) emit_barrier(a, choice);
  a.nops(nops);
  if (loc == BarrierLoc::kLoc2) emit_barrier(a, choice);

  switch (choice) {
    case OrderChoice::kDataDep:
      // Bogus data dependency: value to store depends on the loaded value.
      a.eor(X5, X3, X3);
      a.add(X6, X4, X5);
      a.str(X6, X1, 0);
      break;
    case OrderChoice::kAddrDep:
      // Bogus address dependency: target address depends on the load.
      a.eor(X5, X3, X3);
      a.add(X6, X1, X5);
      a.str(X4, X6, 0);
      break;
    case OrderChoice::kCtrl:
    case OrderChoice::kCtrlIsb:
      // Bogus control dependency: a branch whose condition uses the loaded
      // value; always falls through.
      a.eor(X5, X3, X3);
      a.cbnz(X5, "taken");
      a.label("taken");
      if (choice == OrderChoice::kCtrlIsb) a.isb();
      a.str(X4, X1, 0);
      break;
    default:
      emit_store(a, choice, X4, X1, 0);
      break;
  }
  a.addi(X20, X20, 1);
  a.cmpi(X20, iters);
  a.blt("loop");
  a.halt();
  return a.take("load-store/" + to_string(choice));
}

double run_single(const PlatformSpec& spec, const Program& prog,
                  std::uint32_t iters, trace::Tracer* tracer,
                  trace::MetricsRegistry* metrics) {
  sim::Machine m(spec, 64u << 20);
  m.load_program(0, prog);
  sim::RunConfig cfg;
  cfg.max_cycles = 2'000'000'000ULL;
  cfg.tracer = tracer;
  cfg.metrics = metrics;
  auto r = m.run(cfg);
  ARMBAR_CHECK_MSG(r.completed, "abstract model run timed out");
  return sim::RunResult::throughput_per_sec(iters, r.cycles, spec.freq_ghz);
}

double run_pair(const PlatformSpec& spec, const Program& prog,
                std::uint32_t iters, CoreId c0, CoreId c1,
                trace::Tracer* tracer, trace::MetricsRegistry* metrics) {
  sim::Machine m(spec, 64u << 20);
  m.load_program(c0, prog);
  m.load_program(c1, prog);
  sim::RunConfig cfg;
  cfg.max_cycles = 2'000'000'000ULL;
  cfg.tracer = tracer;
  cfg.metrics = metrics;
  auto r = m.run(cfg);
  ARMBAR_CHECK_MSG(r.completed, "abstract model run timed out");
  return sim::RunResult::throughput_per_sec(iters, r.cycles, spec.freq_ghz);
}

}  // namespace armbar::simprog

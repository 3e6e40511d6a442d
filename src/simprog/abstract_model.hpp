// Generators for the paper's abstracted models (Algorithm 1) and runners
// that reproduce Figures 2, 3 and 5.
//
// Each model is a loop over fresh cache lines with zero, one or two memory
// operations and a configurable barrier at one of two locations:
//   location 1 — strictly after the first memory reference (the RMR);
//   location 2 — after the nop block, just before the second reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace armbar::simprog {

using sim::Op;
using sim::PlatformSpec;
using sim::Program;

/// Every order-preserving option Figures 2/3/5 sweep.
enum class OrderChoice : std::uint8_t {
  kNone,
  kDmbFull, kDmbSt, kDmbLd,
  kDsbFull, kDsbSt, kDsbLd,
  kIsb,
  kLdar,      ///< first op becomes a load-acquire (Fig 5)
  kLdapr,     ///< ARMv8.3 RCpc load-acquire (Table 3 footnote extension)
  kStlr,      ///< second store becomes a store-release (Figs 3/5)
  kCtrlIsb,   ///< bogus control dependency + ISB
  kCtrl,      ///< bogus control dependency alone
  kDataDep,   ///< bogus data dependency into the second op's value
  kAddrDep,   ///< bogus address dependency into the second op's address
};

std::string to_string(OrderChoice c);

/// Emit the plain barrier instruction a choice names (DMB, DSB or ISB);
/// emit nothing for the others (none, acquire/release, dependencies), which
/// are not standalone instructions.
void emit_barrier(sim::Asm& a, OrderChoice c);

/// True for the choices emit_barrier turns into an instruction.
bool is_plain_barrier(OrderChoice c);

/// rd <- [rn + off]: LDAR for kLdar, LDAPR for kLdapr, else a plain LDR.
/// With emit_barrier of the same choice after it, an acquire edge is an
/// acquiring load or a plain load and a barrier, never both.
void emit_load(sim::Asm& a, OrderChoice c, sim::Reg rd, sim::Reg rn,
               std::int64_t off = 0);
/// [rn + off] <- rs: STLR for kStlr, else a plain STR (a release edge is
/// emit_barrier then emit_store of one choice).
void emit_store(sim::Asm& a, OrderChoice c, sim::Reg rs, sim::Reg rn,
                std::int64_t off = 0);

/// Barrier placement relative to the nop block.
enum class BarrierLoc : std::uint8_t { kNone, kLoc1, kLoc2 };

/// Fig 2 model: no memory operations; a bare barrier on the critical path.
Program make_intrinsic_model(OrderChoice barrier, std::uint32_t nops,
                             std::uint32_t iters);

/// Fig 3 model: two stores to fresh cache lines each iteration; the two
/// buffers are shared by both threads so the stores are RMRs.
Program make_store_store_model(OrderChoice choice, BarrierLoc loc,
                               std::uint32_t nops, std::uint32_t iters,
                               Addr buf_a, Addr buf_b);

/// Fig 5 model: a load then a store to different cache lines.
Program make_load_store_model(OrderChoice choice, BarrierLoc loc,
                              std::uint32_t nops, std::uint32_t iters,
                              Addr buf_a, Addr buf_b);

/// Throughput of a single-core run, in loops per second at the platform
/// frequency. A non-null `tracer` is attached to the machine for the run,
/// and a non-null `metrics` registry records its counters and latency
/// histograms (RunConfig::metrics); throughput is bit-identical either way.
double run_single(const PlatformSpec& spec, const Program& prog,
                  std::uint32_t iters, trace::Tracer* tracer = nullptr,
                  trace::MetricsRegistry* metrics = nullptr);

/// Throughput with two cores executing `prog` over the same buffers, in
/// loops per second per core.
double run_pair(const PlatformSpec& spec, const Program& prog,
                std::uint32_t iters, CoreId c0, CoreId c1,
                trace::Tracer* tracer = nullptr,
                trace::MetricsRegistry* metrics = nullptr);

/// Buffer placement used by the models (shared; both threads walk it).
inline constexpr Addr kBufA = 0x100000;
inline constexpr Addr kBufB = 0x600000;

}  // namespace armbar::simprog

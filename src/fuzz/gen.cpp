#include "fuzz/gen.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "prof/prof.hpp"
#include "sim/program.hpp"

namespace armbar::fuzz {
namespace {

using sim::Asm;
using sim::Op;
using sim::Reg;

constexpr Addr kAddrStride = 0x1000;  // one cache line + padding per address
constexpr std::uint32_t kNumAddrs = 4;  // shared locations per program
Addr addr_of(std::uint32_t idx) { return kAddrStride * (idx + 1); }

/// Abstract op, mutated freely before rendering to real instructions.
struct AOp {
  enum Kind : std::uint8_t {
    kStore,         ///< str  #fresh -> [addr]
    kRelStore,      ///< stlr #fresh -> [addr]
    kLoad,          ///< ldr  fresh-reg <- [addr]
    kAcqLoad,       ///< ldar/ldapr fresh-reg <- [addr]
    kAddrDepLoad,   ///< eor-self address dependency on the latest load
    kDataDepStore,  ///< stored value data-depends on the latest load
    kCtrlDep,       ///< forward cbnz on the latest load (ctrl dep barrier)
    kBarrier,
  };
  Kind kind = kStore;
  std::uint32_t addr = 0;       ///< address index
  Op barrier = Op::kDmbFull;    ///< kBarrier only
  bool rcpc = false;            ///< kAcqLoad: LDAPR instead of LDAR
};

const Op kBarrierMenu[] = {
    // dmb-weighted: the paper's focus, and where placement bugs live.
    Op::kDmbFull, Op::kDmbSt, Op::kDmbLd, Op::kDmbFull, Op::kDmbSt,
    Op::kDmbLd,   Op::kDsbFull, Op::kDsbSt, Op::kDsbLd, Op::kIsb,
};

class CaseBuilder {
 public:
  CaseBuilder(std::uint64_t seed, const GenOptions& opts)
      : seed_(seed), rng_(seed ^ 0xa5a5f00dcafe1234ULL), opts_(opts) {}

  model::ConcurrentProgram build() {
    // Lock shapes are opt-in and pre-rolled: with the knob at 0 no random
    // draw happens here, so default-option seeds stay bit-identical.
    if (opts_.lock_shape_pct > 0 &&
        rng_.below(100) < opts_.lock_shape_pct) {
      lock_skeleton();
      mutate();
      return render();
    }
    // Shape bias: MP 35%, SB 20%, IRIW 15% (when 4 threads fit), the rest
    // fully random.
    const std::uint64_t roll = rng_.below(100);
    if (roll < 35) {
      mp_skeleton();
    } else if (roll < 55) {
      sb_skeleton();
    } else if (roll < 70 && opts_.max_threads >= 4) {
      iriw_skeleton();
    } else {
      random_skeleton();
    }
    mutate();
    return render();
  }

 private:
  std::uint32_t rand_addr() {
    return static_cast<std::uint32_t>(rng_.below(kNumAddrs));
  }

  AOp rand_barrier() {
    AOp op;
    op.kind = AOp::kBarrier;
    op.barrier = kBarrierMenu[rng_.below(std::size(kBarrierMenu))];
    return op;
  }

  AOp rand_op() {
    AOp op;
    op.addr = rand_addr();
    switch (rng_.below(10)) {
      case 0: case 1: op.kind = AOp::kStore; break;
      case 2: case 3: op.kind = AOp::kLoad; break;
      case 4: op.kind = AOp::kRelStore; break;
      case 5: op.kind = AOp::kAcqLoad; op.rcpc = rng_.chance(1, 3); break;
      case 6: op.kind = AOp::kAddrDepLoad; break;
      case 7: op.kind = AOp::kDataDepStore; break;
      case 8: op.kind = AOp::kCtrlDep; break;
      default: return rand_barrier();
    }
    return op;
  }

  // Two distinct address indices for the two-location skeletons.
  std::pair<std::uint32_t, std::uint32_t> two_addrs() {
    const std::uint32_t a = rand_addr();
    std::uint32_t b = rand_addr();
    if (b == a) b = (a + 1) % kNumAddrs;
    return {a, b};
  }

  void mp_skeleton() {
    const auto [data, flag] = two_addrs();
    std::vector<AOp> producer;
    producer.push_back({AOp::kStore, data});
    if (rng_.chance(3, 4)) producer.push_back(rand_barrier());
    producer.push_back(
        {rng_.chance(1, 4) ? AOp::kRelStore : AOp::kStore, flag});
    std::vector<AOp> consumer;
    consumer.push_back(
        {rng_.chance(1, 4) ? AOp::kAcqLoad : AOp::kLoad, flag});
    switch (rng_.below(4)) {
      case 0: consumer.push_back(rand_barrier()); break;
      case 1: consumer.push_back({AOp::kCtrlDep, 0}); break;
      default: break;  // bare or dependency-carried second load below
    }
    consumer.push_back(
        {rng_.chance(1, 3) ? AOp::kAddrDepLoad : AOp::kLoad, data});
    threads_ = {std::move(producer), std::move(consumer)};
  }

  void sb_skeleton() {
    const auto [x, y] = two_addrs();
    auto side = [&](std::uint32_t mine, std::uint32_t other) {
      std::vector<AOp> t;
      t.push_back({AOp::kStore, mine});
      if (rng_.chance(1, 2)) t.push_back(rand_barrier());
      t.push_back({AOp::kLoad, other});
      return t;
    };
    threads_ = {side(x, y), side(y, x)};
  }

  void iriw_skeleton() {
    const auto [x, y] = two_addrs();
    auto reader = [&](std::uint32_t first, std::uint32_t second) {
      std::vector<AOp> t;
      t.push_back({AOp::kLoad, first});
      if (rng_.chance(2, 3)) t.push_back(rand_barrier());
      t.push_back({AOp::kLoad, second});
      return t;
    };
    threads_ = {{{AOp::kStore, x}}, {{AOp::kStore, y}},
                reader(x, y), reader(y, x)};
  }

  // Lock-handoff skeleton (ISSUE 9): the generic shape the lockver
  // templates encode deliberately. The edge menus span correct (dmb ish,
  // STLR/LDAR) and insufficient (dmb st, nothing) choices — the harness
  // earns its keep on the boundary between them.
  void lock_skeleton() {
    const auto [grant, data] = two_addrs();
    std::uint32_t probe = data;
    for (std::uint32_t i = 0; i < kNumAddrs; ++i)
      if (i != grant && i != data) {
        probe = i;
        break;
      }
    std::vector<AOp> holder;
    holder.push_back({AOp::kStore, data});     // CS write
    holder.push_back({AOp::kLoad, probe});     // CS read (overlap witness)
    switch (rng_.below(4)) {                   // release edge menu
      case 0:
        holder.push_back({AOp::kBarrier, 0, Op::kDmbFull});
        holder.push_back({AOp::kStore, grant});
        break;
      case 1:
        holder.push_back({AOp::kRelStore, grant});
        break;
      case 2:  // store-only barrier: insufficient for the CS load above
        holder.push_back({AOp::kBarrier, 0, Op::kDmbSt});
        holder.push_back({AOp::kStore, grant});
        break;
      default:  // no edge at all
        holder.push_back({AOp::kStore, grant});
        break;
    }
    std::vector<AOp> waiter;
    waiter.push_back(
        {rng_.chance(1, 2) ? AOp::kAcqLoad : AOp::kLoad, grant});  // acquire
    if (rng_.chance(1, 2)) waiter.push_back({AOp::kCtrlDep, 0});
    waiter.push_back({AOp::kStore, probe});  // waiter's CS write
    waiter.push_back(
        {rng_.chance(1, 3) ? AOp::kAddrDepLoad : AOp::kLoad, data});
    threads_ = {std::move(holder), std::move(waiter)};
  }

  void random_skeleton() {
    const auto nthreads = static_cast<std::uint32_t>(
        2 + rng_.below(std::max<std::uint32_t>(opts_.max_threads, 2) - 1));
    threads_.resize(nthreads);
    for (auto& t : threads_) {
      const auto nops = static_cast<std::uint32_t>(
          2 + rng_.below(std::max<std::uint32_t>(opts_.max_ops_per_thread, 3) - 1));
      for (std::uint32_t i = 0; i < nops; ++i) t.push_back(rand_op());
    }
  }

  void mutate() {
    // Barrier churn: the differential harness earns its keep on programs
    // whose barrier placement is *almost* right.
    if (rng_.chance(1, 2)) {
      auto& t = threads_[rng_.below(threads_.size())];
      t.insert(t.begin() + static_cast<std::ptrdiff_t>(rng_.below(t.size() + 1)),
               rand_barrier());
    }
    if (rng_.chance(1, 3)) {
      auto& t = threads_[rng_.below(threads_.size())];
      for (auto it = t.begin(); it != t.end(); ++it)
        if (it->kind == AOp::kBarrier) {
          t.erase(it);
          break;
        }
    }
    if (rng_.chance(1, 2))
      threads_[rng_.below(threads_.size())].push_back(rand_op());
  }

  model::ConcurrentProgram render() {
    model::ConcurrentProgram p;
    p.name = "fuzz-" + std::to_string(seed_);
    std::uint64_t next_value = 1;  // distinct store values, case-wide
    std::set<std::uint32_t> used_addrs;
    for (std::uint32_t t = 0; t < threads_.size(); ++t) {
      Asm a;
      for (std::uint32_t i = 0; i < kNumAddrs; ++i)
        a.movi(static_cast<Reg>(i), static_cast<std::int64_t>(addr_of(i)));
      std::uint32_t next_reg = 8;
      int label_n = 0;
      Reg last_load = sim::XZR;
      auto alloc = [&] {
        return static_cast<Reg>(std::min<std::uint32_t>(next_reg++, 28));
      };
      for (const AOp& op : threads_[t]) {
        if (op.kind != AOp::kBarrier && op.kind != AOp::kCtrlDep)
          used_addrs.insert(op.addr);
        const Reg base = static_cast<Reg>(op.addr);
        switch (op.kind) {
          case AOp::kStore:
          case AOp::kRelStore: {
            const Reg v = alloc();
            a.movi(v, static_cast<std::int64_t>(next_value++));
            if (op.kind == AOp::kRelStore) a.stlr(v, base);
            else a.str(v, base);
            break;
          }
          case AOp::kDataDepStore: {
            if (last_load == sim::XZR) {
              const Reg v = alloc();
              a.movi(v, static_cast<std::int64_t>(next_value++));
              a.str(v, base);
              break;
            }
            const Reg z = alloc();
            a.eor(z, last_load, last_load);
            const Reg v = alloc();
            a.addi(v, z, static_cast<std::int64_t>(next_value++));
            a.str(v, base);
            break;
          }
          case AOp::kLoad:
          case AOp::kAcqLoad: {
            const Reg d = alloc();
            if (op.kind == AOp::kAcqLoad && !op.rcpc) a.ldar(d, base);
            else if (op.kind == AOp::kAcqLoad) a.ldapr(d, base);
            else a.ldr(d, base);
            last_load = d;
            p.observe_regs.emplace_back(t, d);
            break;
          }
          case AOp::kAddrDepLoad: {
            const Reg d = alloc();
            if (last_load == sim::XZR) {
              a.ldr(d, base);
            } else {
              const Reg z = alloc();
              a.eor(z, last_load, last_load);
              a.ldr_idx(d, base, z);
            }
            last_load = d;
            p.observe_regs.emplace_back(t, d);
            break;
          }
          case AOp::kCtrlDep: {
            if (last_load == sim::XZR) break;
            const std::string l = "j" + std::to_string(label_n++);
            a.cbnz(last_load, l);
            a.label(l);
            break;
          }
          case AOp::kBarrier:
            a.emit({op.barrier});
            break;
        }
      }
      a.halt();
      p.threads.push_back(a.take(p.name + "-t" + std::to_string(t)));
    }
    for (std::uint32_t idx : used_addrs) {
      p.init.emplace_back(addr_of(idx), 0);
      p.observe_mem.push_back(addr_of(idx));
    }
    return p;
  }

  const std::uint64_t seed_;
  Rng rng_;
  const GenOptions& opts_;
  std::vector<std::vector<AOp>> threads_;
};

}  // namespace

model::ConcurrentProgram generate(std::uint64_t seed, const GenOptions& opts) {
  ARMBAR_PROF_SCOPE(kFuzzGenerate);
  return CaseBuilder(seed, opts).build();
}

}  // namespace armbar::fuzz

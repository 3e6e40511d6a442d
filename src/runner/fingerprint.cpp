#include "runner/fingerprint.hpp"

#include <bit>
#include <cstdio>

namespace armbar::runner {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t fnv_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kFnvPrime;
}

inline std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) h = fnv_byte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  return h;
}

}  // namespace

Fingerprint& Fingerprint::mix(std::uint64_t v) {
  lo_ = fnv_u64(lo_, v);
  hi_ = fnv_u64(hi_, ~v);
  return *this;
}

Fingerprint& Fingerprint::mix(double v) {
  return mix(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix(std::string_view s) {
  // Length first so {"ab","c"} and {"a","bc"} digest differently.
  mix(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    lo_ = fnv_byte(lo_, static_cast<std::uint8_t>(c));
    hi_ = fnv_byte(hi_, static_cast<std::uint8_t>(c) ^ 0xa5);
  }
  return *this;
}

Fingerprint& Fingerprint::mix(const sim::PlatformSpec& spec) {
  // Field-by-field, so a new latency knob shows up here (and in the
  // static_assert below) the day it is added.
  const sim::Latencies& l = spec.lat;
  static_assert(sizeof(sim::Latencies) == 24 * sizeof(std::uint32_t),
                "Latencies gained/lost a field: update Fingerprint::mix and "
                "bump kCacheEpoch in runner/cache.hpp");
  mix(spec.name).mix(spec.arch).mix(spec.nodes).mix(spec.cores_per_node);
  mix(spec.freq_ghz).mix(spec.interconnect).mix(spec.mca);
  mix(l.alu).mix(l.cache_hit).mix(l.sb_hit).mix(l.sb_insert);
  mix(l.sb_drain_delay).mix(l.owned_drain).mix(l.pipeline_flush).mix(l.barrier_base);
  mix(l.mem_local).mix(l.mem_remote).mix(l.c2c_local).mix(l.c2c_remote);
  mix(l.inv_local).mix(l.inv_remote).mix(l.read_occupancy);
  mix(l.bus_mem_local).mix(l.bus_mem_cross).mix(l.bus_sync).mix(l.stlr_extra);
  mix(l.sb_entries).mix(l.sb_mshrs).mix(l.lq_entries).mix(l.max_spec_branches);
  mix(l.wfe_timeout);
  return *this;
}

Fingerprint& Fingerprint::mix(const sim::Program& prog) {
  mix(static_cast<std::uint64_t>(prog.code.size()));
  for (const sim::Instr& ins : prog.code) {
    mix(static_cast<std::uint64_t>(ins.op));
    mix(static_cast<std::uint64_t>(ins.rd));
    mix(static_cast<std::uint64_t>(ins.rn));
    mix(static_cast<std::uint64_t>(ins.rm));
    mix(ins.imm);
    mix(ins.target);
  }
  return *this;
}

Fingerprint& Fingerprint::mix(const sim::fault::FaultPlan& plan) {
  // Field-by-field, like PlatformSpec: a new fault class must show up here
  // (and trip the static_assert) the day it is added.
  static_assert(sizeof(sim::fault::FaultPlan) ==
                    sizeof(std::uint64_t) + 8 * sizeof(std::uint32_t),
                "FaultPlan gained/lost a field: update Fingerprint::mix and "
                "bump kCacheEpoch in runner/cache.hpp");
  mix("fault-plan");
  mix(plan.seed);
  mix(plan.barrier_spike_pm).mix(plan.barrier_spike_cycles);
  mix(plan.coh_delay_pm).mix(plan.coh_delay_cycles);
  mix(plan.coh_duplicate_pm);
  mix(plan.evict_pm);
  mix(plan.sb_stall_pm).mix(plan.sb_stall_cycles);
  return *this;
}

Fingerprint& Fingerprint::mix(const model::ConcurrentProgram& p) {
  mix(p.name).mix(static_cast<std::uint32_t>(p.threads.size()));
  for (const sim::Program& t : p.threads) mix(t);
  mix(static_cast<std::uint32_t>(p.init.size()));
  for (const auto& [addr, v] : p.init) mix(addr).mix(v);
  mix(static_cast<std::uint32_t>(p.observe_regs.size()));
  for (const auto& [t, r] : p.observe_regs)
    mix(t).mix(static_cast<std::uint32_t>(r));
  mix(static_cast<std::uint32_t>(p.observe_mem.size()));
  for (const Addr a : p.observe_mem) mix(a);
  return *this;
}

Fingerprint& Fingerprint::mix(const model::ModelOptions& o) {
  return mix(o.naive)
      .mix(o.max_path_instructions)
      .mix(o.max_execs_per_thread)
      .mix(o.max_reads_per_thread)
      .mix(o.max_value_domain)
      .mix(o.max_candidates);
}

std::string Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi_),
                static_cast<unsigned long long>(lo_));
  return std::string(buf, 32);
}

}  // namespace armbar::runner

#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "common/check.hpp"
#include "prof/prof.hpp"
#include "sim/verify.hpp"

namespace armbar::sim {
namespace {

/// Fold a finished run into `reg`: its cores' CoreStats as counters and
/// the histograms its hook sites fed. Zero counters and empty histograms
/// record nothing, so the registry holds only what the run exercised.
void record_run(trace::MetricsRegistry& reg, const std::vector<CoreStats>& cores,
                const RunHistograms& h) {
  namespace metric = trace::metric;
  for (const CoreStats& s : cores) {
    reg.inc(metric::kInstrs, s.instructions);
    reg.inc(metric::kBarriers, s.barriers);
    reg.inc(metric::kSquashes, s.squashes);
    for (int k = 0; k < static_cast<int>(StallCause::kCount); ++k)
      if (s.stall_cycles[k] != 0)
        reg.inc(std::string(metric::kStallPrefix) +
                    to_string(static_cast<StallCause>(k)),
                s.stall_cycles[k]);
  }
  reg.merge(metric::kBarrierComplete, h.barrier_complete);
  reg.merge(metric::kBarrierTxn, h.barrier_txn);
  reg.merge(metric::kSbResidency, h.sb_residency);
  reg.merge(metric::kCohTransfer, h.coh_transfer);
  reg.merge(metric::kRemoteInv, h.remote_inv);
}

}  // namespace

Machine::Machine(PlatformSpec spec, std::size_t mem_bytes)
    : spec_(std::move(spec)),
      mem_(std::make_unique<MemorySystem>(spec_, mem_bytes)),
      active_(spec_.total_cores(), false),
      sched_(spec_.total_cores()) {
  cores_.reserve(spec_.total_cores());
  for (CoreId c = 0; c < spec_.total_cores(); ++c)
    cores_.push_back(std::make_unique<Core>(c, spec_, *mem_));
  mem_->set_invalidate_hook([this](CoreId victim, Addr line, Cycle at) {
    Core& core = *cores_[victim];
    core.on_invalidate(line, at);
    // An invalidation can pull a parked core's wake earlier; mirror the new
    // attention into the scheduler so the run loop's min() sees it.
    // on_invalidate only ever *lowers* next_attention (and only for parked
    // cores), so when it did not move the slot is still exact and the
    // scheduler write — a heap push per delivered invalidation on a 64-way
    // contended line — can be skipped entirely. A wake that lands on the
    // cycle being swept is reported to the sweep through woken_.
    const Cycle na = core.next_attention();
    if (na < sched_.at(victim) && active_[victim]) {
      sched_.set(victim, na);
      if (na <= sweep_at_) woken_ |= std::uint64_t{1} << victim;
    }
  });
}

ProgramHandle Machine::load_program(CoreId c, Program prog) {
  ProgramHandle h = decode_program(std::move(prog));
  load_program(c, h);
  return h;
}

void Machine::load_program(CoreId c, ProgramHandle prog) {
  ARMBAR_CHECK(c < num_cores());
  ARMBAR_CHECK_MSG(prog != nullptr, "load_program: null program handle");
  cores_[c]->load_program(std::move(prog));
  active_[c] = true;
  sched_.set(c, cores_[c]->next_attention());
}

void Machine::set_tso(bool tso) {
  for (auto& c : cores_) c->set_tso(tso);
}

void Machine::set_tracer(trace::Tracer* t) {
  if (t != nullptr) t->set_stall_cause_names(stall_cause_names());
  for (auto& c : cores_) c->set_tracer(t);
  mem_->set_tracer(t);
  tracer_ = t;
}

std::vector<std::uint64_t> Machine::extract_state(
    const std::vector<std::pair<CoreId, Reg>>& regs,
    const std::vector<Addr>& addrs) const {
  std::vector<std::uint64_t> out;
  out.reserve(regs.size() + addrs.size());
  for (const auto& [c, r] : regs) {
    ARMBAR_CHECK_MSG(c < cores_.size(), "extract_state: core out of range");
    out.push_back(core(c).reg(r));
  }
  for (Addr a : addrs) out.push_back(mem_->peek(a));
  return out;
}

RunResult Machine::run(const RunConfig& cfg) {
  ARMBAR_PROF_SCOPE(kSimRun);
  ARMBAR_CHECK_MSG(!ran_, "Machine::run() may only be called once");
  ran_ = true;

  const Cycle max_cycles = cfg.max_cycles;
  const bool attach = cfg.tracer != nullptr;
  if (attach) set_tracer(cfg.tracer);

  // Fault injection: an explicit plan wins; otherwise fall back to the
  // process-global plan the runner installs for chaos sweeps. The engine is
  // fanned out the same way a tracer is — private setters, one attach point.
  const fault::FaultPlan* plan =
      cfg.fault != nullptr ? cfg.fault : fault::global_fault_plan();
  if (plan != nullptr && plan->enabled()) {
    fault_engine_ = std::make_unique<fault::FaultEngine>(*plan, num_cores());
    for (auto& c : cores_) c->set_fault_engine(fault_engine_.get());
    mem_->set_fault_engine(fault_engine_.get());
  }

  RunResult res;
  // The first cycle the loop below never steps: core-local runs stop short
  // of it.
  const Cycle run_end =
      max_cycles == kNeverCycle ? kNeverCycle : max_cycles + 1;
  std::vector<CoreId> live;
  live.reserve(num_cores());
  for (CoreId c = 0; c < num_cores(); ++c)
    if (active_[c]) {
      live.push_back(c);
      cores_[c]->set_run_end(run_end);
    }

  // Metrics: one histogram set for the whole run, fed by every live core
  // and the memory system. Counters need no hook at all: they are
  // CoreStats, folded in after the loop.
  if (cfg.metrics != nullptr) {
    hist_ = std::make_unique<RunHistograms>();
    for (const CoreId c : live) cores_[c]->set_histograms(hist_.get());
    mem_->set_histograms(hist_.get());
  }

  const Cycle verify_every =
      cfg.verify_every != 0 ? cfg.verify_every : global_verify_every();
  const MachineVerifier verifier(*this);
  Cycle next_verify = verify_every != 0 ? verify_every : kNeverCycle;

  // Watchdog: progress = anything retiring anywhere. Instructions alone
  // would flag a legitimate polling loop's *partner* core... except the
  // poller itself retires instructions, so the sum only freezes when every
  // live core is truly stuck (e.g. a barrier waiting on a drain that never
  // starts). Sampled once per window, not per event.
  const auto progress_signature = [&] {
    std::uint64_t sig = 0;
    for (const CoreId c : live) {
      const CoreStats& s = cores_[c]->stats();
      sig += s.instructions + s.sb_retired + s.squashes;
    }
    return sig;
  };
  const Cycle watchdog = cfg.watchdog_cycles;
  std::uint64_t progress_sig = progress_signature();
  Cycle progress_cycle = 0;

  Cycle now = 0;
  std::uint64_t steps = 0;
  // No scope of its own: the loop's host time is sim.run's self time, and
  // the sim.coherence and sim.verify scopes inside it subtract out of it.
  while (true) {
    // The lower of the wheel's first lane and the lazy heap's valid top:
    // O(log n) amortized instead of a full scan per iteration.
    const Cycle next = sched_.min();
    if (next == kNeverCycle) {
      // idle() <=> next_attention()==kNeverCycle after a step, so an empty
      // queue means completion — but keep the deadlock diagnostic exact.
      for (const CoreId c : live)
        ARMBAR_CHECK_MSG(cores_[c]->idle(),
                         "simulation deadlock: no core schedulable");
      res.completed = true;
      break;
    }
    // A verify tick is a loop event of its own, so the checks land on the
    // cadence's cycles however far apart the steps are; a sweep with no
    // core due changes nothing.
    now = std::max(now, std::min(next, next_verify));
    if (now > max_cycles) {
      res.completed = false;
      break;
    }
    // Step pass over the due cores only, in id order — NOT heap pop
    // order: MemorySystem mutation order (hence simulated timing) must
    // stay exactly that of a walk over every core. A step can pull another
    // core's attention back to `now` (coherence invalidation waking a WFE
    // parker): a later id joins this sweep, as an id-order walk would
    // reach it; an earlier id keeps the heap entry the hook pushed and is
    // stepped by the next pass at this same cycle.
    sweep_at_ = now;
    for (std::uint64_t due = sched_.take_due(now); due != 0;) {
      const auto c = static_cast<CoreId>(std::countr_zero(due));
      due &= due - 1;
      woken_ = 0;
      Core& core = *cores_[c];
      core.step(now);
      ++steps;
      sched_.set(c, core.next_attention());
      due |= woken_ & (~std::uint64_t{1} << c);
    }
    if (now >= next_verify) {
      ARMBAR_PROF_SCOPE(kSimVerify);
      if (std::string v = verifier.check(now); !v.empty())
        throw InvariantViolation(
            verifier.diagnose("invariant_violation", v, now));
      next_verify = now + verify_every;
    }
    if (watchdog != 0 && now >= progress_cycle + watchdog) {
      const std::uint64_t sig = progress_signature();
      if (sig == progress_sig)
        throw SimHang(verifier.diagnose(
            "hang", "no instruction retired, store drained or branch "
                    "squashed in " +
                        std::to_string(now - progress_cycle) + " cycles",
            now));
      progress_sig = sig;
      // A core that ran ahead issued through its last_step_: the window
      // starts there, or a run longer than the window that ends in a
      // stall would read as a hang.
      progress_cycle = now;
      for (const CoreId c : live)
        progress_cycle = std::max(progress_cycle, cores_[c]->last_step_);
    }
  }

  // One closing sweep so a corruption introduced after the last cadence
  // tick (or a run shorter than the cadence) is still caught.
  if (verify_every != 0) {
    ARMBAR_PROF_SCOPE(kSimVerify);
    if (std::string v = verifier.check(now); !v.empty())
      throw InvariantViolation(verifier.diagnose("invariant_violation", v, now));
  }

  Cycle end = 0;
  res.cores.reserve(live.size());
  for (const CoreId c : live) {
    res.cores.push_back(cores_[c]->stats());
    end = std::max(end, cores_[c]->stats().halted_at);
  }
  res.cycles = res.completed ? end : max_cycles;
  res.mem = mem_->stats();
  if (cfg.metrics != nullptr) record_run(*cfg.metrics, res.cores, *hist_);
  if (prof::enabled()) {
    std::uint64_t instrs = 0;
    for (const CoreStats& s : res.cores) instrs += s.instructions;
    ARMBAR_PROF_COUNT(kSimInstructions, instrs);
    ARMBAR_PROF_COUNT(kSimSteps, steps);
    ARMBAR_PROF_COUNT(kSimHeapPushes, sched_.pushes());
    ARMBAR_PROF_COUNT(kSimLaneHits, sched_.lane_hits());
    std::uint64_t pumps = 0;
    for (const CoreId c : live) pumps += cores_[c]->pumps_;
    ARMBAR_PROF_COUNT(kSimPumps, pumps);
    ARMBAR_PROF_COUNT(kSimCycles, res.cycles);
    ARMBAR_PROF_COUNT(kSimRuns, 1);
  }
  return res;
}

}  // namespace armbar::sim

#include "prof/export.hpp"

namespace armbar::prof {

trace::Json host_prof_json(const Snapshot& s) {
  trace::Json hp = trace::Json::object();
  hp.set("schema", kHostProfSchema);
  hp.set("excluded_from_digests", true);
  hp.set("wall_ns", s.wall_ns);
  hp.set("threads", static_cast<std::uint64_t>(s.threads));

  trace::Json phases = trace::Json::object();
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const PhaseStats& p = s.phases[i];
    if (p.count == 0) continue;
    trace::Json e = trace::Json::object();
    e.set("count", p.count);
    e.set("total_ns", p.total_ns);
    e.set("self_ns", p.self_ns);
    phases.set(phase_name(static_cast<Phase>(i)), std::move(e));
  }
  hp.set("phases", std::move(phases));

  trace::Json counters = trace::Json::object();
  for (std::size_t i = 0; i < kNumCounters; ++i)
    if (s.counters[i] != 0)
      counters.set(counter_name(static_cast<Counter>(i)), s.counters[i]);
  hp.set("counters", std::move(counters));

  // Derived interpreter speed: guest instructions per host second spent
  // inside Machine::run (every instruction count is made in that scope).
  const std::uint64_t instrs = s.counter(Counter::kSimInstructions);
  const std::uint64_t sim_ns = s.phase(Phase::kSimRun).total_ns;
  if (instrs > 0 && sim_ns > 0) {
    hp.set("sim_instructions", instrs);
    hp.set("sim_instructions_per_sec",
           static_cast<double>(instrs) / (static_cast<double>(sim_ns) * 1e-9));
  }
  return hp;
}

}  // namespace armbar::prof

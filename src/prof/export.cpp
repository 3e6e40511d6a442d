#include "prof/export.hpp"

#include <string>
#include <vector>

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
  // inside Machine::run. Falls back to the wall clock when no sim.run
  // scope fired (e.g. counters recorded from an uninstrumented build).
  const std::uint64_t instrs = s.counter(Counter::kSimInstructions);
  std::uint64_t sim_ns = s.phase(Phase::kSimRun).total_ns;
  if (sim_ns == 0) sim_ns = s.wall_ns;
  if (instrs > 0 && sim_ns > 0) {
    hp.set("sim_instructions", instrs);
    hp.set("sim_instructions_per_sec",
           static_cast<double>(instrs) / (static_cast<double>(sim_ns) * 1e-9));
  }
  return hp;
}

std::string collapsed_stacks(const Snapshot& s) {
  std::vector<std::string> paths(s.nodes.size());
  std::string out;
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const SnapshotNode& n = s.nodes[i];
    paths[i] = n.parent < 0
                   ? std::string(phase_name(n.phase))
                   : paths[static_cast<std::size_t>(n.parent)] + ";" +
                         phase_name(n.phase);
    if (n.self_ns == 0) continue;
    out += paths[i];
    out += ' ';
    out += std::to_string(n.self_ns);
    out += '\n';
  }
  return out;
}

std::string chrome_trace_json(const Snapshot& s) {
  // Pack children sequentially inside their parent's span. nodes is in
  // preorder with parent < index, so begin[] resolves in one pass.
  std::vector<std::uint64_t> begin(s.nodes.size(), 0);
  std::vector<std::uint64_t> cursor(s.nodes.size() + 1, 0);  // +1: root slot
  trace::Json events = trace::Json::array();
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const SnapshotNode& n = s.nodes[i];
    const std::size_t parent_slot =
        n.parent < 0 ? s.nodes.size() : static_cast<std::size_t>(n.parent);
    const std::uint64_t parent_begin =
        n.parent < 0 ? 0 : begin[static_cast<std::size_t>(n.parent)];
    begin[i] = parent_begin + cursor[parent_slot];
    cursor[parent_slot] += n.total_ns;

    trace::Json e = trace::Json::object();
    e.set("name", phase_name(n.phase));
    e.set("ph", "X");
    e.set("ts", static_cast<double>(begin[i]) / 1000.0);   // us
    e.set("dur", static_cast<double>(n.total_ns) / 1000.0);
    e.set("pid", 1);
    e.set("tid", 1);
    trace::Json args = trace::Json::object();
    args.set("count", n.count);
    args.set("self_ns", n.self_ns);
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  trace::Json meta = trace::Json::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("pid", 1);
  trace::Json margs = trace::Json::object();
  margs.set("name", "armbar host profile (aggregate)");
  meta.set("args", std::move(margs));
  events.push(std::move(meta));

  trace::Json doc = trace::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump(1);
}

bool write_collapsed(const std::string& path, const Snapshot& s) {
  return trace::write_file(path, collapsed_stacks(s));
}

bool write_chrome(const std::string& path, const Snapshot& s) {
  return trace::write_file(path, chrome_trace_json(s) + "\n");
}

}  // namespace armbar::prof

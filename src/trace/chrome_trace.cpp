#include "trace/chrome_trace.hpp"

#include <cstdio>
#include <set>

namespace armbar::trace {

namespace {

std::string op_label(const ChromeTraceOptions& opts, std::uint8_t op) {
  if (opts.op_name) return opts.op_name(op);
  return "op" + std::to_string(op);
}

std::string cause_label(const ChromeTraceOptions& opts, std::uint8_t cause) {
  if (cause < opts.stall_cause_names.size()) return opts.stall_cause_names[cause];
  return "cause" + std::to_string(cause);
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One trace_event record; `dur < 0` means an instant event.
Json record(const std::string& name, const std::string& cat, CoreId core,
            double ts, double dur) {
  Json e = Json::object();
  e.set("name", name);
  e.set("cat", cat);
  e.set("ph", dur >= 0 ? "X" : "i");
  e.set("ts", ts);
  if (dur >= 0) e.set("dur", dur);
  e.set("pid", 0);
  e.set("tid", static_cast<std::uint64_t>(core));
  if (dur < 0) e.set("s", "t");  // instant scope: thread
  return e;
}

}  // namespace

Json to_chrome_trace(const std::vector<Event>& events, const ChromeTraceOptions& opts) {
  Json out = Json::object();
  Json list = Json::array();

  // Process/thread metadata so Perfetto shows "core N" lanes.
  {
    Json meta = Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", 0);
    Json args = Json::object();
    args.set("name", opts.process_name);
    meta.set("args", std::move(args));
    list.push(std::move(meta));
  }
  std::set<CoreId> cores;
  for (const auto& e : events) cores.insert(e.core);
  for (CoreId c : cores) {
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 0);
    meta.set("tid", static_cast<std::uint64_t>(c));
    Json args = Json::object();
    args.set("name", "core " + std::to_string(c));
    meta.set("args", std::move(args));
    list.push(std::move(meta));
  }

  for (const auto& e : events) {
    // One simulated cycle is one microsecond of trace time.
    const double ts = static_cast<double>(e.begin);
    const double dur =
        e.end > e.begin ? static_cast<double>(e.end - e.begin) : -1.0;
    Json args = Json::object();
    args.set("cycle", e.begin);
    if (e.end > e.begin) args.set("cycles", e.end - e.begin);
    std::string name;
    std::string cat;
    switch (e.kind) {
      case EventKind::kInstrIssue:
        name = op_label(opts, e.detail);
        cat = "instr";
        args.set("pc", static_cast<std::uint64_t>(e.pc));
        break;
      case EventKind::kStall:
        name = "stall:" + cause_label(opts, e.detail);
        cat = "stall";
        args.set("pc", static_cast<std::uint64_t>(e.pc));
        break;
      case EventKind::kSquash:
        name = "squash";
        cat = "spec";
        args.set("pc", static_cast<std::uint64_t>(e.pc));
        break;
      case EventKind::kSbEnqueue:
        name = "sb.enqueue";
        cat = "sb";
        args.set("seq", e.a);
        args.set("addr", hex(e.b));
        break;
      case EventKind::kSbDrainStart:
        name = "sb.drain";
        cat = "sb";
        args.set("seq", e.a);
        args.set("addr", hex(e.b));
        break;
      case EventKind::kSbDrainRetire:
        name = "sb.retire";
        cat = "sb";
        args.set("seq", e.a);
        args.set("residency", e.b);
        break;
      case EventKind::kCohTransfer:
        name = std::string("coh:") + to_string(static_cast<CohKind>(e.detail));
        cat = "coh";
        args.set("line", hex(e.a));
        break;
      case EventKind::kLineTransition: {
        const auto from = static_cast<LineCode>(e.detail >> 4);
        const auto to = static_cast<LineCode>(e.detail & 0xF);
        name = std::string("line:") + to_string(from) + "->" + to_string(to);
        cat = "coh";
        args.set("line", hex(e.a));
        break;
      }
      case EventKind::kBarrierIssue:
        name = "barrier.issue:" + op_label(opts, e.detail);
        cat = "barrier";
        args.set("pc", static_cast<std::uint64_t>(e.pc));
        break;
      case EventKind::kBarrierTxn:
        name = "barrier.txn:" + op_label(opts, e.detail);
        cat = "barrier";
        break;
      case EventKind::kBarrierComplete:
        name = "barrier.block:" + op_label(opts, e.detail);
        cat = "barrier";
        args.set("pc", static_cast<std::uint64_t>(e.pc));
        break;
      case EventKind::kStoreGateArm:
        name = "store_gate.arm";
        cat = "barrier";
        args.set("pc", static_cast<std::uint64_t>(e.pc));
        break;
      case EventKind::kStoreGateOpen:
        name = "store_gate.open";
        cat = "barrier";
        break;
      case EventKind::kCount:
        continue;
    }
    Json rec = record(name, cat, e.core, ts, dur);
    rec.set("args", std::move(args));
    list.push(std::move(rec));
  }

  out.set("traceEvents", std::move(list));
  out.set("displayTimeUnit", "ms");
  out.set("otherData", [&] {
    Json d = Json::object();
    d.set("generator", "armbar::trace");
    d.set("cycle_unit_us", 1.0);
    return d;
  }());
  return out;
}

Json to_chrome_trace(const Tracer& tracer, ChromeTraceOptions opts) {
  if (opts.stall_cause_names.empty()) {
    for (std::uint8_t c = 0; c < 32; ++c) {
      const std::string n = tracer.stall_cause_name(c);
      if (n == std::to_string(c)) break;  // past the installed name table
      opts.stall_cause_names.push_back(n);
    }
  }
  return to_chrome_trace(tracer.snapshot(), opts);
}

bool write_chrome_trace(const std::string& path, const Tracer& tracer,
                        ChromeTraceOptions opts) {
  const std::string text = to_chrome_trace(tracer, std::move(opts)).dump(1);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = n == text.size() && std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace armbar::trace

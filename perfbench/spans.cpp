#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "trace/json.hpp"

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Spans::open(std::string name, int parent, int run) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back({std::move(name), t, -1, parent, run});
  return static_cast<int>(log_.size()) - 1;
}

void Spans::close(int idx) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  log_[static_cast<std::size_t>(idx)].end_ns = t;
}

double Spans::busy_s(const std::string& name, int run) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t ns = 0;
  for (const Span& s : log_)
    if (s.run == run && s.end_ns >= 0 && s.name == name)
      ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

double Spans::duration_s(int idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = log_[static_cast<std::size_t>(idx)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

double Spans::self_s(int idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& p = log_[static_cast<std::size_t>(idx)];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : log_)
    if (s.parent == idx && s.end_ns >= 0)
      kids.emplace_back(std::max(s.start_ns, p.start_ns),
                        std::min(s.end_ns, p.end_ns));
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, reach = p.start_ns;
  for (const auto& [b, e] : kids) {
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return static_cast<double>(p.end_ns - p.start_ns - covered) * 1e-9;
}

bool Spans::write(const std::string& path) const {
  using armbar::trace::Json;
  Json events = Json::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < log_.size(); ++i) {
      const Span& s = log_[i];
      if (s.end_ns < 0) continue;
      Json args = Json::object();
      args.set("id", static_cast<std::uint64_t>(i));
      args.set("parent", static_cast<std::int64_t>(s.parent));
      args.set("run", static_cast<std::int64_t>(s.run));
      Json ev = Json::object();
      ev.set("name", s.name);
      ev.set("ph", "X");
      ev.set("pid", 1);
      ev.set("tid", s.run < 0 ? 0 : s.run + 1);
      ev.set("ts", static_cast<double>(s.start_ns) * 1e-3);
      ev.set("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      ev.set("args", std::move(args));
      events.push(std::move(ev));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path, std::ios::binary);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

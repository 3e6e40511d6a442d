// perfbench: the armbar benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Sets the workload up several times (median = setup_s), then runs it as a
// closed loop of batch jobs for S seconds and prints one JSON line:
//   --trace 0: the end-to-end metrics (medians over the iterations);
//   --trace 1: the per-layer metrics. Untraced and traced iterations then
//              alternate, so bench.trace_overhead compares like with like,
//              and replays of hidden layer costs follow the loop.
// Exit status: 0 when every output checked out, 1 when a check failed
// (the JSON line is still printed), 2 when the run could not start.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runner/arg_parser.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Fewest measured iterations, whatever --seconds says: untraced runs
/// report medians of at least three; traced runs need two of each kind to
/// check that exact counts repeat.
constexpr std::size_t kMinPlain = 3;
constexpr std::size_t kMinTraced = 2;

struct Metric {
  std::string name, unit;
};

const std::vector<Metric>& end_to_end() {
  static const std::vector<Metric> m = {
      {"setup_s", "s"}, {"wall_s", "s"},        {"ops_per_s", "1/s"},
      {"cpu_s", "s"},   {"peak_rss_mib", "MiB"}};
  return m;
}

/// Every workload prints every name; a layer a workload never enters
/// reads 0.
std::vector<Metric> per_layer() {
  std::vector<Metric> m = {
      {"sim.construct_us.64MiB", "us"},
      {"sim.construct_faults.64MiB", "count"},
      {"sim.construct_us.1MiB", "us"},
      {"sim.run_s", "s"},
      {"sim.instructions", "count"},
      {"sim.runs", "count"},
      {"sim.mips", "MIPS"},
      {"sim.verify_s", "s"},
      {"runner.points", "count"},
      {"runner.point_hits", "count"},
      {"runner.cache.hits", "count"},
      {"runner.cache.misses", "count"},
      {"runner.cache.stores", "count"},
      {"runner.cache.evictions", "count"},
      {"runner.cache.lookup_us", "us"},
      {"runner.cache.store_us", "us"},
      {"trace.emit_count", "count"},
      {"trace.emit_s", "s"},
      {"trace.report_bytes", "B"},
      {"trace.report_dump_ms", "ms"},
      {"trace.report_validate_ms", "ms"},
      {"dedup.pipeline_s", "s"},
      {"model.enumerate_s", "s"},
      {"model.candidates", "count"},
      {"model.execs_per_s", "1/s"},
      {"fuzz.generate_ms", "ms"},
      {"fuzz.sim_s", "s"},
      {"fuzz.sim_runs", "count"},
      {"opt.attempted", "count"},
      {"opt.accepted", "count"},
      {"opt.restored", "count"},
      {"opt.phase_s", "s"},
      {"opt.self_s", "s"},
      {"host.sys_s", "s"},
      {"bench.trace_overhead", "ratio"},
      {"bench.harness_self_ms", "ms"},
  };
  for (const auto* list : {&pb::sweep_experiments(), &pb::opt_locks_experiments()})
    for (const std::string& e : *list) m.push_back({"exp." + e + ".s", "s"});
  return m;
}

/// Counts that must repeat exactly from one traced iteration to the next.
bool exact_count(const std::string& name) {
  static const std::set<std::string> names = {
      "sim.instructions", "sim.runs",        "runner.points",
      "runner.point_hits", "runner.cache.hits", "runner.cache.misses",
      "runner.cache.stores", "runner.cache.evictions", "model.candidates",
      "fuzz.sim_runs",    "opt.attempted",   "opt.accepted",
      "opt.restored",     "trace.emit_count"};
  return names.count(name) != 0;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Cpu {
  double user = 0, sys = 0;
};
Cpu cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

/// Reset the kernel's resident-set high-water mark (VmHWM), so the next
/// reading covers one iteration only.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// The engine prints its tables to stdout; the last stdout line must be
/// the result, so stdout goes to /dev/null while the workload runs.
class QuietStdout {
 public:
  QuietStdout() : saved_(dup(STDOUT_FILENO)) {
    std::fflush(stdout);
    const int null = open("/dev/null", O_WRONLY);
    dup2(null, STDOUT_FILENO);
    close(null);
  }
  ~QuietStdout() {
    std::fflush(stdout);
    dup2(saved_, STDOUT_FILENO);
    close(saved_);
  }
  QuietStdout(const QuietStdout&) = delete;
  QuietStdout& operator=(const QuietStdout&) = delete;

 private:
  int saved_;
};

struct Sample {
  double wall = 0, cpu = 0, sys = 0, ops_per_s = 0, peak_rss_mib = 0;
};

double median_of(const std::vector<Sample>& v, double Sample::*field) {
  std::vector<double> xs;
  for (const Sample& s : v) xs.push_back(s.*field);
  return pb::median(xs);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& names,
                  const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values.find(names[i].name);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", it == values.end() ? 0.0 : it->second);
    out += (i == 0 ? "\"" : ", \"") + names[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + names[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  armbar::runner::ArgParser args(
      "perfbench", "End-to-end and per-layer benchmark of the armbar libraries.");
  args.add_value("workload", "NAME",
                 "sweep_cold | sweep_warm_json | fuzz_campaign | opt_locks");
  args.add_int("seed", "N", "names the scratch dirs and orders the replays", 1,
               0);
  args.add_int("seconds", "S", "measure for about S seconds", 10, 1, 3600);
  args.add_int("trace", "0|1", "1: per-layer metrics from a traced run", 0, 0,
               1);
  args.add_value("fuzz-seeds", "LO-HI",
                 "fuzz_campaign's inclusive seed range (held out: 443-498)",
                 "18-105");
  args.add_value("work-dir", "DIR", "scratch root, relative to the checkout",
                 ".bench_work");
  args.add_value("pin", "PATH", "points-digest pin",
                 "bench/baselines/POINTS_DIGESTS.json");
  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }

  pb::Config cfg;
  cfg.workload = args.str("workload");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  cfg.pin_path = args.str("pin");
  unsigned long long lo = 0, hi = 0;
  if (std::sscanf(args.str("fuzz-seeds").c_str(), "%llu-%llu", &lo, &hi) != 2 ||
      lo > hi) {
    std::fprintf(stderr, "perfbench: --fuzz-seeds wants LO-HI\n");
    return 2;
  }
  cfg.fuzz_lo = lo;
  cfg.fuzz_hi = hi;
  const std::string spans_dir = args.str("work-dir") + "/spans";
  cfg.work_dir = args.str("work-dir") + "/" + cfg.workload + "-s" +
                 std::to_string(seed) + "-p" + std::to_string(getpid());
  const bool traced = args.integer("trace") == 1;
  const double budget = static_cast<double>(args.integer("seconds"));

  std::map<std::string, double> values;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  pb::Spans spans;
  try {
    std::unique_ptr<pb::Workload> w = pb::make_workload(cfg);
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                   cfg.workload.c_str());
      return 2;
    }
    QuietStdout quiet;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      const double t0 = now_s();
      w->setup();
      setups.push_back(now_s() - t0);
    }
    std::vector<Sample> plain, with_trace;
    std::vector<std::map<std::string, double>> layers;
    std::vector<double> harness_ms;
    const double start = now_s();
    for (int run = 0;; ++run) {
      const bool trace_this = traced && run % 2 == 1;
      w->before_iteration();
      if (!reset_peak_rss() && run == 0)
        std::fprintf(stderr, "perfbench: cannot reset VmHWM; peaks include set-up\n");
      const Cpu c0 = cpu_now();
      const double t0 = now_s();
      pb::Iteration it;
      int root = -1;
      if (trace_this) {
        pb::SpanScope s(&spans, "iteration", -1, run);
        root = s.index();
        it = w->iterate(&spans, root, run);
      } else {
        it = w->iterate(nullptr, -1, run);
      }
      const double wall = now_s() - t0;
      const Cpu c1 = cpu_now();
      const Sample s{wall, (c1.user - c0.user) + (c1.sys - c0.sys),
                     c1.sys - c0.sys, it.ops / wall, peak_rss_mib()};
      (trace_this ? with_trace : plain).push_back(s);
      std::fprintf(stderr, "perfbench: iteration %d%s wall %.4f s cpu %.4f s sys %.4f s\n",
                   run, trace_this ? " (traced)" : "", s.wall, s.cpu, s.sys);
      attempted += it.attempted;
      failed += it.failed;
      for (const std::string& e : it.errors) errors.push_back(e);
      if (trace_this) {
        layers.push_back(it.layers);
        harness_ms.push_back(spans.self_s(root) * 1e3);
      }
      const bool enough =
          traced ? plain.size() >= kMinTraced && with_trace.size() >= kMinTraced
                 : plain.size() >= kMinPlain;
      if (enough && now_s() - start + wall > budget) break;
    }

    if (!traced) {
      values["setup_s"] = pb::median(setups);
      values["wall_s"] = median_of(plain, &Sample::wall);
      values["ops_per_s"] = median_of(plain, &Sample::ops_per_s);
      values["cpu_s"] = median_of(plain, &Sample::cpu);
      values["peak_rss_mib"] = median_of(plain, &Sample::peak_rss_mib);
    } else {
      std::set<std::string> names;
      for (const auto& l : layers)
        for (const auto& [k, v] : l) names.insert(k);
      for (const std::string& k : names) {
        std::vector<double> xs;
        for (const auto& l : layers) {
          const auto f = l.find(k);
          xs.push_back(f == l.end() ? 0.0 : f->second);
        }
        if (exact_count(k) && *std::min_element(xs.begin(), xs.end()) !=
                                  *std::max_element(xs.begin(), xs.end()))
          std::fprintf(stderr, "perfbench: count %s varied across traced "
                       "iterations (%.0f..%.0f)\n", k.c_str(),
                       *std::min_element(xs.begin(), xs.end()),
                       *std::max_element(xs.begin(), xs.end()));
        values[k] = pb::median(xs);
      }
      values["bench.harness_self_ms"] = pb::median(harness_ms);
      // Kernel time is sampled per scheduler tick, a few ticks per
      // iteration on the small workloads: total it over the untraced
      // iterations instead of taking a median of per-iteration readings.
      double sys = 0;
      for (const Sample& p : plain) sys += p.sys;
      values["host.sys_s"] = sys / static_cast<double>(plain.size());
      values["bench.trace_overhead"] = median_of(with_trace, &Sample::wall) /
                                       median_of(plain, &Sample::wall);
      w->replay(spans, seed, &values);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    std::filesystem::remove_all(cfg.work_dir);
    return 2;
  }
  std::filesystem::remove_all(cfg.work_dir);

  if (traced) {
    std::filesystem::create_directories(spans_dir);
    const std::string path = spans_dir + "/" + cfg.workload + "-s" +
                             std::to_string(seed) + ".json";
    if (!spans.write(path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  for (const std::string& e : errors)
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  std::fprintf(stderr, "perfbench: %s fail_ratio %.6g (%llu of %llu)\n",
               cfg.workload.c_str(),
               attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  const bool correct = errors.empty() && failed == 0 && attempted > 0;
  print_result(correct, attempted, failed, traced ? per_layer() : end_to_end(),
               values);
  return correct ? 0 : 1;
}

#include "runner/engine.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "prof/export.hpp"
#include "prof/prof.hpp"
#include "sim/isa.hpp"
#include "sim/verify.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/json_report.hpp"
#include "trace/trace.hpp"

namespace armbar::runner {
namespace {

// Interrupt latch: the handler may only touch a sig_atomic_t. It stores the
// signal number (SIGINT from ^C, SIGTERM from a CI timeout / kill) so the
// CLI can exit with the conventional 128+signal status. Experiments poll it
// at every cached() point, so either signal stops new work quickly while
// the engine still assembles and flushes a partial report.
volatile std::sig_atomic_t g_interrupted = 0;

void engine_signal_handler(int sig) { g_interrupted = sig; }

const char* interrupt_name(int sig) {
  return sig == SIGTERM ? "SIGTERM" : "SIGINT";
}

// Interrupt-cleanup registry (engine.hpp). A plain array: hooks are
// registered from experiment bodies (main thread, before any fork) and run
// after the latch is observed, outside the signal handler, so ordinary
// synchronization is fine.
std::mutex g_cleanup_mu;
std::vector<void (*)()> g_cleanup_hooks;

/// Scoped installation of the engine's process-global degradation hooks:
/// ARMBAR_CHECK failures throw (instead of aborting the whole sweep), the
/// fault plan and verifier cadence reach every Machine::run, and SIGINT is
/// latched. Everything is restored on scope exit so tests can nest runs.
class DegradationScope {
 public:
  DegradationScope(const EngineOptions& opts)
      : prev_handler_(set_check_fail_handler(&throw_check_failure)),
        prev_verify_(sim::global_verify_every()),
        fault_installed_(opts.fault.enabled()),
        sigint_installed_(opts.handle_sigint) {
    sim::set_global_verify_every(opts.verify_every);
    if (fault_installed_) sim::fault::set_global_fault_plan(opts.fault);
    if (sigint_installed_) {
      g_interrupted = 0;
      prev_sigint_ = std::signal(SIGINT, &engine_signal_handler);
      prev_sigterm_ = std::signal(SIGTERM, &engine_signal_handler);
    }
  }
  ~DegradationScope() {
    if (sigint_installed_ && prev_sigterm_ != SIG_ERR)
      std::signal(SIGTERM, prev_sigterm_);
    if (sigint_installed_ && prev_sigint_ != SIG_ERR)
      std::signal(SIGINT, prev_sigint_);
    if (fault_installed_) sim::fault::clear_global_fault_plan();
    sim::set_global_verify_every(prev_verify_);
    set_check_fail_handler(prev_handler_);
  }

 private:
  CheckFailHandler prev_handler_;
  std::uint64_t prev_verify_;
  bool fault_installed_;
  bool sigint_installed_;
  void (*prev_sigint_)(int) = SIG_ERR;
  void (*prev_sigterm_)(int) = SIG_ERR;
};

/// One attempt's abnormal-termination record (empty kind = clean).
struct Failure {
  std::string kind;
  std::string reason;
  trace::Json diagnostic;
};

// Same banner the standalone benches printed, so migrated experiments keep
// their stdout shape.
void banner(const std::string& display, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", display.c_str(), title.c_str());
  std::printf("metric: simulated cycles at the platform clock; shapes (who\n");
  std::printf("wins, crossovers) are the reproduction target, not absolutes.\n");
  std::printf("==============================================================\n\n");
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Human summary of the host profile: per-phase flat totals sorted by self
/// time, then the derived simulator throughput. Mirrors the host_prof
/// report section so a terminal run surfaces the same numbers.
void print_host_profile(const prof::Snapshot& snap) {
  std::printf("\n------------------ host profile (report-only) -----------------\n");
  std::printf("wall %.1f ms, %u thread%s\n",
              static_cast<double>(snap.wall_ns) / 1e6, snap.threads,
              snap.threads == 1 ? "" : "s");
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < prof::kNumPhases; ++i)
    if (snap.phases[i].count > 0) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return snap.phases[a].self_ns > snap.phases[b].self_ns;
  });
  std::printf("  %-16s %12s %12s %12s\n", "phase", "count", "total ms",
              "self ms");
  for (std::size_t i : order)
    std::printf("  %-16s %12llu %12.3f %12.3f\n",
                prof::phase_name(static_cast<prof::Phase>(i)),
                static_cast<unsigned long long>(snap.phases[i].count),
                static_cast<double>(snap.phases[i].total_ns) / 1e6,
                static_cast<double>(snap.phases[i].self_ns) / 1e6);
  for (std::size_t i = 0; i < prof::kNumCounters; ++i)
    if (snap.counters[i] != 0)
      std::printf("  %-16s %12llu\n",
                  prof::counter_name(static_cast<prof::Counter>(i)),
                  static_cast<unsigned long long>(snap.counters[i]));
  const std::uint64_t instrs = snap.counter(prof::Counter::kSimInstructions);
  std::uint64_t sim_ns = snap.phase(prof::Phase::kSimRun).total_ns;
  if (sim_ns == 0) sim_ns = snap.wall_ns;
  if (instrs > 0 && sim_ns > 0)
    std::printf("  sim throughput   %.2f M instr/s (host-side)\n",
                static_cast<double>(instrs) * 1e3 /
                    static_cast<double>(sim_ns));
}

}  // namespace

void register_interrupt_cleanup(void (*fn)()) {
  if (fn == nullptr) return;
  std::lock_guard<std::mutex> lock(g_cleanup_mu);
  for (auto* existing : g_cleanup_hooks)
    if (existing == fn) return;
  g_cleanup_hooks.push_back(fn);
}

void run_interrupt_cleanups() {
  std::vector<void (*)()> hooks;
  {
    std::lock_guard<std::mutex> lock(g_cleanup_mu);
    hooks = g_cleanup_hooks;
  }
  for (auto* fn : hooks) fn();
}

Engine::Engine(const Registry& registry, EngineOptions opts)
    : registry_(registry), opts_(std::move(opts)) {}

EngineResult Engine::run() {
  EngineResult result;
  const std::vector<const ExperimentSpec*> matched =
      registry_.match(opts_.filter);
  if (matched.empty()) {
    std::fprintf(stderr,
                 "armbar-bench: no experiment matches filter '%s' "
                 "(see --list)\n",
                 opts_.filter.c_str());
    return result;  // ok == false: a typoed filter must not pass CI
  }

  std::size_t jobs = opts_.jobs != 0 ? opts_.jobs : ThreadPool::hardware_jobs();
  if (opts_.trace && jobs != 1) {
    // The tracer ring is single-writer; traced runs are serial by contract.
    std::printf("(--trace forces --jobs 1; tracing needs a serial schedule)\n");
    jobs = 1;
  }
  result.jobs = jobs;
  ThreadPool pool(jobs - 1);  // the caller works too

  ResultCache cache(opts_.cache_enabled ? opts_.cache_dir : "");

  const bool single = matched.size() == 1;
  trace::ReportBuilder report(
      single ? matched[0]->name : "armbar-bench",
      single ? matched[0]->title
             : "consolidated experiment report (filter '" + opts_.filter + "')");
  if (!single) {
    report.add_param("filter", opts_.filter);
    report.add_param("jobs", std::to_string(jobs));
    report.add_param("repeat", std::to_string(opts_.repeat));
    report.add_param("cache", cache.enabled() ? opts_.cache_dir : "off");
  }

  // --json and --trace reports carry each experiment's counters and
  // histograms; other runs never merge them.
  const bool report_metrics = opts_.collect_metrics || opts_.trace;

  DegradationScope degradation(opts_);
  if (opts_.fault.enabled())
    std::printf("fault injection: %s\n\n", opts_.fault.describe().c_str());

  // Host profiling: always reset at run start so a previous in-process run
  // (tests nest engine runs) can't bleed stale samples into this report's
  // host_prof section. The engine only *disables* what it enabled — an
  // experiment's own prof::Session (sim_perf) or an outer caller wins.
  prof::reset();
  const bool prof_owned = opts_.profile && !prof::enabled();
  if (prof_owned) prof::set_enabled(true);

  bool all_ok = true;
  bool io_ok = true;
  for (const ExperimentSpec* spec : matched) {
    if (g_interrupted != 0) {
      // SIGINT already observed: don't start more work, but keep the
      // experiment visible in the report as explicitly skipped.
      ExperimentOutcome out;
      out.name = spec->name;
      out.ok = false;
      out.status = "skipped";
      out.kind = "skipped";
      out.reason = "not started: run interrupted";
      out.attempts = 0;
      all_ok = false;
      const std::string kp = single ? "" : spec->name + "/";
      report.add_param(kp + "status", out.status);
      report.add_quarantine(out.name, out.status, out.kind, out.reason);
      result.outcomes.push_back(std::move(out));
      continue;
    }
    banner(spec->figure, spec->title);

    std::unique_ptr<trace::MetricsRegistry> metrics;
    std::unique_ptr<trace::Tracer> tracer;
    std::unique_ptr<ExperimentContext> ctx;
    bool deterministic = true;
    bool aborted = false;
    Failure failure;
    std::uint32_t attempts = 0;

    const auto t0 = std::chrono::steady_clock::now();
    const std::uint32_t reps = opts_.repeat == 0 ? 1 : opts_.repeat;
    for (std::uint32_t attempt = 0; attempt <= opts_.retries; ++attempt) {
      if (attempt > 0) {
        // Exponential backoff: 50ms, 100ms, 200ms, ... Lets transient host
        // pressure (the usual cause of a timeout) clear before retrying.
        std::this_thread::sleep_for(std::chrono::milliseconds(50)
                                    * (1u << (attempt - 1)));
        std::printf("\n-- retry %u/%u: %s (%s) --\n", attempt, opts_.retries,
                    spec->name.c_str(), failure.kind.c_str());
      }
      ++attempts;
      failure = Failure{};
      aborted = false;
      deterministic = true;
      std::uint64_t first_digest = 0;

      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        metrics = std::make_unique<trace::MetricsRegistry>();
        if (opts_.trace) tracer = std::make_unique<trace::Tracer>();
        ExperimentContext::Hooks hooks;
        hooks.pool = &pool;
        // A repetition after the first must simulate: reading the first
        // one's cache entries would compare the cached values with
        // themselves.
        hooks.cache = rep == 0 ? &cache : nullptr;
        hooks.tracer = tracer.get();
        hooks.metrics = report_metrics ? metrics.get() : nullptr;
        if (opts_.timeout_ms > 0) {
          hooks.has_deadline = true;
          hooks.deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(opts_.timeout_ms);
        }
        hooks.interrupted = &g_interrupted;
        ctx = std::make_unique<ExperimentContext>(*spec, hooks);

        if (rep > 0)
          std::printf("\n-- repetition %u/%u: %s --\n", rep + 1, reps,
                      spec->name.c_str());
        try {
          spec->body(*ctx);
        } catch (const ExperimentAbort& e) {
          aborted = true;  // ctx.fatal() already recorded the failed check
          // An abort classified via note_failure_kind() (e.g. the lock
          // verifier's "lock_invariant") also gets a quarantine entry, so
          // the report carries its repro bundle and quarantine params.
          if (const std::string kind = ctx->failure_kind(); !kind.empty())
            failure = {kind, e.reason, trace::Json()};
        } catch (const ExperimentTimeout& e) {
          failure = {"timeout", e.reason, trace::Json()};
        } catch (const ExperimentInterrupted&) {
          failure = {"interrupted",
                     std::string("run interrupted (") +
                         interrupt_name(g_interrupted) + ")",
                     trace::Json()};
        } catch (const sim::SimError& e) {
          // SimHang / InvariantViolation: kind travels in the diagnostic.
          failure = {e.diagnostic().kind, e.diagnostic().summary,
                     e.diagnostic().to_json()};
          std::printf("%s\n", e.diagnostic().str().c_str());
        } catch (const CheckFailure& e) {
          failure = {"check_failed", e.what(), trace::Json()};
        } catch (const std::exception& e) {
          failure = {"error", e.what(), trace::Json()};
        } catch (...) {
          failure = {"error", "unknown exception", trace::Json()};
        }
        if (aborted || !failure.kind.empty()) break;
        if (rep == 0)
          first_digest = ctx->points_digest();
        else if (ctx->points_digest() != first_digest)
          deterministic = false;
      }

      // Only a timeout or a generic error is plausibly transient. A hang,
      // an invariant violation, a tripped check or an interrupt is
      // deterministic (or deliberate) — retrying would just repeat it.
      const bool retryable =
          failure.kind == "timeout" || failure.kind == "error";
      if (failure.kind.empty() || !retryable) break;
      if (failure.kind != "interrupted")
        std::printf("  experiment %s: %s (%s)\n", spec->name.c_str(),
                    failure.kind.c_str(), failure.reason.c_str());
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();

    if (reps > 1 && !aborted && failure.kind.empty())
      ctx->check(deterministic,
                 "repetitions deterministic (points digest stable across " +
                     std::to_string(reps) + " runs)");
    if (ctx->prof_digest_leak())
      ctx->check(false,
                 "cached point values free of host-profiling fields "
                 "(digest hygiene)");

    ExperimentOutcome out;
    out.name = spec->name;
    out.aborted = aborted;
    out.ok = !aborted && failure.kind.empty() && ctx->all_checks_passed();
    out.points = ctx->points();
    out.cache_hits = ctx->point_hits();
    out.points_digest = ctx->points_digest();
    out.wall_ms = wall_ms;
    out.status = out.ok ? "ok" : "failed";
    out.kind = failure.kind;
    out.reason = failure.reason;
    out.diagnostic = failure.diagnostic;
    out.repro_bundle = ctx->repro_bundle();
    out.attempts = attempts;
    all_ok = all_ok && out.ok;
    if (!failure.kind.empty())
      std::printf("\n  experiment %s FAILED: %s (%s, %u attempt%s)\n",
                  spec->name.c_str(), failure.kind.c_str(),
                  failure.reason.c_str(), attempts, attempts == 1 ? "" : "s");

    // Fold this experiment into the consolidated report. Single-match runs
    // keep unprefixed keys.
    const std::string cp = single ? "" : spec->name + ": ";
    const std::string kp = single ? "" : spec->name + "/";
    for (const auto& c : ctx->checks()) report.add_check(cp + c.claim, c.pass);
    for (const auto& [name, value] : ctx->params())
      report.add_param(kp + name, value);
    for (const auto& [name, value] : ctx->metrics_recorded())
      report.add_metric(kp + name, value);
    report.add_param(kp + "points_digest", hex16(ctx->points_digest()));
    report.add_param(kp + "status", out.status);
    // Barrier-optimization decisions (ISSUE 10): report-level section,
    // validated by report_check. Last experiment to note one wins (only
    // barrier_opt emits it today).
    if (const trace::Json rep = ctx->opt_report(); !rep.is_null())
      report.set_opt_report(rep);
    // Emitted only on contamination so clean reports stay byte-identical
    // to pre-profiling ones; report_check rejects any report carrying it.
    if (ctx->prof_digest_leak())
      report.add_param(kp + "prof_digest_leak", "true");
    if (!out.kind.empty()) {
      trace::Json extra;
      if (const auto qp = ctx->quarantine_params(); !qp.empty()) {
        extra = trace::Json::object();
        for (const auto& [k, v] : qp) extra.set(k, v);
      }
      report.add_quarantine(out.name, out.status, out.kind, out.reason,
                            out.diagnostic, out.repro_bundle, extra);
    }
    report.add_metric(kp + "wall_ms", wall_ms);
    report.add_metric(kp + "sim_points", static_cast<double>(out.points));
    report.add_metric(kp + "cache_point_hits",
                      static_cast<double>(out.cache_hits));
    if (report_metrics) report.add_registry(*metrics, kp);

    if (opts_.trace && tracer != nullptr) {
      std::string path;
      if (opts_.trace_path.empty())
        path = spec->name + ".trace.json";
      else
        path = single ? opts_.trace_path : spec->name + "." + opts_.trace_path;
      trace::ChromeTraceOptions copts;
      copts.process_name = "armbar-" + spec->name;
      copts.op_name = +[](std::uint8_t op) {
        return sim::to_string(static_cast<sim::Op>(op));
      };
      io_ok = trace::write_chrome_trace(path, *tracer, copts) && io_ok;
      std::printf("trace:  %s (open in https://ui.perfetto.dev)\n",
                  path.c_str());
    }

    result.outcomes.push_back(out);
  }

  if (!single) {
    std::printf("\n===================== armbar-bench summary ====================\n");
    for (const auto& out : result.outcomes)
      std::printf("  %-26s %-8s  points %5llu (hits %5llu)  %8.1f ms%s%s\n",
                  out.name.c_str(),
                  out.ok ? "ok" : out.status == "skipped" ? "SKIPPED" : "FAIL",
                  static_cast<unsigned long long>(out.points),
                  static_cast<unsigned long long>(out.cache_hits),
                  out.wall_ms, out.kind.empty() ? "" : "  ",
                  out.kind.c_str());
  }
  result.cache_stats = cache.stats();
  if (cache.enabled())
    std::printf("\ncache: %llu hits / %llu misses / %llu stores / "
                "%llu evictions (%s)\n",
                static_cast<unsigned long long>(result.cache_stats.hits),
                static_cast<unsigned long long>(result.cache_stats.misses),
                static_cast<unsigned long long>(result.cache_stats.stores),
                static_cast<unsigned long long>(result.cache_stats.evictions),
                opts_.cache_dir.c_str());

  // Host-profile export: the engine disables only what it enabled, then
  // snapshots whatever recorded — an experiment-owned prof::Session
  // (sim_perf) produces a host_prof section even without --profile.
  if (prof_owned) prof::set_enabled(false);
  const prof::Snapshot snap = prof::snapshot();
  if (snap.has_data()) {
    report.set_host_prof(prof::host_prof_json(snap));
    print_host_profile(snap);
    if (!opts_.profile_folded.empty()) {
      io_ok = prof::write_collapsed(opts_.profile_folded, snap) && io_ok;
      std::printf("profile: %s (flamegraph.pl-compatible collapsed "
                  "stacks)\n",
                  opts_.profile_folded.c_str());
    }
    if (!opts_.profile_chrome.empty()) {
      io_ok = prof::write_chrome(opts_.profile_chrome, snap) && io_ok;
      std::printf("profile: %s (open in https://ui.perfetto.dev)\n",
                  opts_.profile_chrome.c_str());
    }
  }

  result.interrupted = g_interrupted != 0;
  if (result.interrupted) {
    result.signal = static_cast<int>(g_interrupted);
    // Reap forked helpers / unlink shm segments before the partial report
    // is flushed, so an interrupted run leaves nothing behind.
    run_interrupt_cleanups();
    std::printf("\ninterrupted by %s: partial report (remaining experiments "
                "skipped)\n",
                interrupt_name(result.signal));
  }
  report.set_ok(all_ok);
  result.report = report.build();
  result.ok = all_ok && io_ok;
  return result;
}

}  // namespace armbar::runner

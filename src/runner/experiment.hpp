// Declarative experiment API (ISSUE 2): every fig*/table* artifact is a
// registered experiment instead of a main()-driven loop.
//
//   ARMBAR_EXPERIMENT(fig3_store_store, "Figure 3",
//                     "store-store model under different configurations") {
//     auto thr = ctx.map(points.size(), [&](std::size_t i) {
//       return cached_run_pair(ctx, spec, progs[i], iters, c0, c1);
//     });
//     ... print tables, ctx.check(...) the paper's claims ...
//   }
//
// The body receives an ExperimentContext wired to the engine's shared
// thread pool and result cache:
//   * ctx.map(n, fn)  — run fn(0..n-1) host-parallel, results returned in
//     index order regardless of scheduling (deterministic sweep order);
//   * ctx.cached(...) — content-addressed memoization of one sweep point;
//     ctx.cached_instrumented(...) also memoizes the counters and latency
//     histograms of the point's Machine run, so a --json report reads them
//     from the cache instead of re-simulating;
//   * ctx.check/param/metric — the report surface the old BenchRun had.
//
// Registration is static-init into Registry::global(); the experiment
// translation units are linked as an OBJECT library so no registrar is
// dropped by static-library pruning.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runner/cache.hpp"
#include "runner/fingerprint.hpp"
#include "runner/thread_pool.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace armbar::runner {

class ExperimentContext;

/// One registered experiment: identity + body.
struct ExperimentSpec {
  std::string name;    ///< registry key, e.g. "fig3_store_store"
  std::string figure;  ///< paper artifact, e.g. "Figure 3" (banner display)
  std::string title;   ///< one-line description
  void (*body)(ExperimentContext&) = nullptr;
};

/// Thrown by ExperimentContext::fatal(); the engine records the experiment
/// as failed and moves on to the next one.
struct ExperimentAbort {
  std::string reason;
};

/// Thrown from cached() when the experiment ran past its wall-clock budget
/// (--timeout-ms). The engine records status "failed" / kind "timeout" and
/// may retry.
struct ExperimentTimeout {
  std::string reason;
};

/// Thrown from cached() when the run was interrupted (SIGINT). The engine
/// stops starting new work and still flushes a partial report.
struct ExperimentInterrupted {};

class Registry {
 public:
  /// The process-wide registry the ARMBAR_EXPERIMENT macro adds to.
  static Registry& global();

  /// Static-init registrar; aborts on duplicate names. Returns true so it
  /// can initialize a bool.
  bool add(ExperimentSpec spec);

  /// All experiments, sorted by name (deterministic run & report order).
  std::vector<const ExperimentSpec*> sorted() const;

  /// Experiments whose name matches the comma-separated glob list, sorted
  /// by name.
  std::vector<const ExperimentSpec*> match(const std::string& filter) const;

  const ExperimentSpec* find(const std::string& name) const;
  std::size_t size() const { return specs_.size(); }

 private:
  std::vector<ExperimentSpec> specs_;
};

/// Everything an experiment body may touch. Owned by the engine; one fresh
/// instance per experiment execution.
class ExperimentContext {
 public:
  struct Hooks {
    ThreadPool* pool = nullptr;            // never null; size 0 => serial
    ResultCache* cache = nullptr;          // null => uncached
    trace::Tracer* tracer = nullptr;       // non-null only under --trace
    /// Non-null when the report wants metrics (--json, --trace): every
    /// instrumentable point's counters and histograms, computed or read
    /// from the cache, are merged into it.
    trace::MetricsRegistry* metrics = nullptr;
    /// --timeout-ms: sweep points starting after this instant throw
    /// ExperimentTimeout. Checked at point granularity — a point already
    /// simulating is never torn down mid-machine (the watchdog bounds its
    /// runtime instead), so the sweep degrades at a clean boundary.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// SIGINT flag owned by the engine: when it goes nonzero, points throw
    /// ExperimentInterrupted instead of starting more simulations.
    const volatile std::sig_atomic_t* interrupted = nullptr;
  };

  ExperimentContext(const ExperimentSpec& spec, Hooks hooks)
      : spec_(spec), hooks_(hooks) {}

  const ExperimentSpec& spec() const { return spec_; }

  /// True once the engine latched SIGINT/SIGTERM. Long-running bodies that
  /// wait outside cached() — the shm service fleets supervise real child
  /// processes for seconds — poll this and bail (throw
  /// ExperimentInterrupted) so ^C stays responsive.
  bool interrupted() const {
    return hooks_.interrupted != nullptr && *hooks_.interrupted != 0;
  }

  // ---- report surface (the old BenchRun API) ----

  /// PASS/FAIL line, printed and recorded into the consolidated report.
  bool check(bool ok, const std::string& claim);
  void param(const std::string& name, const std::string& value);
  void metric(const std::string& name, double value);

  /// Unrecoverable inconsistency (e.g. a checksum failure): records a
  /// failed check and aborts this experiment only.
  [[noreturn]] void fatal(const std::string& reason);

  /// Attach the path of an armbar.repro/v1 bundle (written by the fuzz
  /// harness) to this run. If the experiment is later quarantined the path
  /// lands on its quarantine entry as "repro_bundle", giving the report a
  /// one-command replay handle (tools/armbar-repro). Last writer wins;
  /// thread-safe (sweep workers may call it).
  void note_repro_bundle(const std::string& path);
  std::string repro_bundle() const;

  /// Classify a subsequent fatal() abort. `kind` becomes the quarantine
  /// entry's failure class (e.g. "lock_invariant" from the lock-verification
  /// harness) instead of the default unclassified abort, and each
  /// note_quarantine_param() pair lands on the entry verbatim — e.g. the
  /// violated invariant's name and its minimized witness outcome, which
  /// report_check requires for "lock_invariant" entries. Thread-safe; the
  /// kind is last-writer-wins, params accumulate.
  void note_failure_kind(const std::string& kind);
  std::string failure_kind() const;
  void note_quarantine_param(const std::string& key, const std::string& value);
  std::vector<std::pair<std::string, std::string>> quarantine_params() const;

  /// Attach an armbar.opt.report/v1 section (opt::opt_report_json) to the
  /// enclosing bench report (ISSUE 10). The engine forwards it to
  /// ReportBuilder::set_opt_report, where validate_bench_report enforces
  /// its arithmetic consistency. Last writer wins across a consolidated
  /// run; thread-safe.
  void note_opt_report(trace::Json rep);
  trace::Json opt_report() const;

  // ---- parallel sweep ----

  /// Run fn(0..n-1) on the engine pool and return the results in index
  /// order. fn must be thread-safe at --jobs > 1: compute only, no
  /// printing; each call builds its own Machine. At --jobs 1 the pool has
  /// no workers and the calls happen in order on this thread.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    std::vector<R> out(n);
    hooks_.pool->parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  // ---- content-addressed memoization ----

  /// Memoize one sweep point. `key` must digest every input that can
  /// change the value (key() seeds it with kCacheEpoch); `desc` is a
  /// human-readable rendering stored with the entry. On a hit, compute is
  /// skipped entirely. Thread-safe. Every call (hit or miss) folds
  /// (key, value) into this experiment's order-independent points digest,
  /// so reports expose a single fingerprint of the whole sweep.
  trace::Json cached(const Fingerprint& key, const std::string& desc,
                     const std::function<trace::Json()>& compute);

  /// Variant for points that run a Machine (run_single / run_pair):
  /// compute(tracer, metrics) passes both to its RunConfig. `metrics` is
  /// always a fresh per-point registry: its counters and histograms are
  /// stored in the cache entry next to the value, a hit reads them back,
  /// and either way they are merged into the experiment's registry when
  /// the report wants them (safe at any --jobs). `tracer` is the shared
  /// serial tracer under --trace, else null; only a traced point skips the
  /// cache lookup, because its ring events need a real run.
  trace::Json cached_instrumented(
      const Fingerprint& key, const std::string& desc,
      const std::function<trace::Json(trace::Tracer*, trace::MetricsRegistry*)>&
          compute);

  /// Seed a fingerprint with the cache epoch (every key must start here).
  /// A process-global fault plan (runner chaos mode) is mixed in too, so
  /// fault-perturbed results live in their own cache namespace and can
  /// never contaminate clean baselines.
  static Fingerprint key();

  // ---- engine-side accessors ----

  struct CheckLine {
    std::string claim;
    bool pass;
  };
  const std::vector<CheckLine>& checks() const { return checks_; }
  const std::vector<std::pair<std::string, std::string>>& params() const {
    return params_;
  }
  const std::vector<std::pair<std::string, double>>& metrics_recorded() const {
    return metrics_recorded_;
  }
  /// XOR-fold over all cached() points of fnv(key || value). Commutative,
  /// so identical across schedules; changes if any point's value changes.
  std::uint64_t points_digest() const { return points_digest_; }
  std::uint64_t points() const { return points_; }
  std::uint64_t point_hits() const { return point_hits_; }
  bool all_checks_passed() const { return failed_checks_ == 0; }
  /// True when any cached() point value carried a reserved host-profiling
  /// key ("host_prof", "self_ns", "sim_instructions_per_sec", ...). Host
  /// time in a cached value poisons the points digest — it changes on
  /// every run — so the engine fails the experiment and flags the report
  /// (report_check rejects it). Mirrors the enum_ns rule: host timing is
  /// report-only, never digest material.
  bool prof_digest_leak() const { return prof_digest_leak_; }

 private:
  trace::Json cached_impl(
      const Fingerprint& key, const std::string& desc, bool instrumentable,
      const std::function<trace::Json(trace::Tracer*, trace::MetricsRegistry*)>&
          fn);

  const ExperimentSpec& spec_;
  Hooks hooks_;
  std::vector<CheckLine> checks_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::pair<std::string, double>> metrics_recorded_;
  std::size_t failed_checks_ = 0;
  std::string repro_bundle_;
  std::string failure_kind_;
  std::vector<std::pair<std::string, std::string>> quarantine_params_;
  trace::Json opt_report_;
  mutable std::mutex mu_;  // guards digest fields, repro_bundle_ and the
                           // failure kind/params (workers may call the
                           // note_* methods)
  std::uint64_t points_digest_ = 0;
  std::uint64_t points_ = 0;
  std::uint64_t point_hits_ = 0;
  bool prof_digest_leak_ = false;
};

}  // namespace armbar::runner

/// Define and register an experiment. Usage:
///   ARMBAR_EXPERIMENT(fig2_intrinsic, "Figure 2", "intrinsic overhead...") {
///     ... body using `ctx` ...
///   }
#define ARMBAR_EXPERIMENT(ident, figure, title)                               \
  static void armbar_experiment_body_##ident(                                 \
      ::armbar::runner::ExperimentContext& ctx);                              \
  [[maybe_unused]] static const bool armbar_experiment_reg_##ident =          \
      ::armbar::runner::Registry::global().add(                               \
          {#ident, figure, title, &armbar_experiment_body_##ident});          \
  static void armbar_experiment_body_##ident(                                 \
      ::armbar::runner::ExperimentContext& ctx)

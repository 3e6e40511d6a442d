// CNA lock scaling (ISSUE 9): Fig-8-style thread-scaling curves for the
// micro-ISA CNA lock on the two-socket server preset — NUMA-aware strong
// vs Table-3-weakened (LDAR/STLR handoff) vs the plain MCS baseline —
// with *exact* retired-barrier counts per acquisition from the simulator's
// core stats. The dynamic strong-minus-weakened barrier delta must match
// the static per-handoff count of the edge table both this program and
// the lockver templates are emitted from: the same two standalone dmbs
// the verification harness proves removable.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "experiment_util.hpp"

using namespace armbar;
using namespace armbar::simprog;
using runner::ExperimentContext;

ARMBAR_EXPERIMENT(cna_scaling, "CNA scaling",
                  "CNA vs MCS thread scaling, exact barrier counts") {
  const sim::PlatformSpec spec = sim::kunpeng916();
  const std::vector<std::uint32_t> kThreads = {2, 8, 16, 24, 36};
  constexpr std::uint32_t kIters = 30;
  constexpr std::uint32_t kCap = 8;  // short streaks: splices actually run

  struct Var {
    std::string title;
    CnaChoice choice;
  };
  std::vector<Var> vars = {{"CNA strong", CnaChoice::of(Strength::kStrong)},
                           {"CNA weakened", CnaChoice::of(Strength::kWeakened)},
                           {"MCS baseline", CnaChoice::mcs()}};
  for (Var& v : vars) v.choice.local_handoff_cap = kCap;
  ctx.param("platform", spec.name);
  ctx.param("cap", std::to_string(kCap));

  const std::size_t cols = vars.size();
  const std::vector<LockResult> res =
      ctx.map(kThreads.size() * cols, [&](std::size_t i) {
        LockWorkload w;
        w.threads = kThreads[i / cols];
        w.iters = kIters;
        return bench::cached_cna(ctx, spec, w, vars[i % cols].choice);
      });

  auto bpa = [&](const LockResult& r, std::uint32_t threads) {
    return static_cast<double>(r.barriers) /
           (static_cast<double>(threads) * kIters);
  };

  TextTable t("CNA scaling on " + spec.name +
              " — throughput (vs MCS) and exact barriers/acquisition");
  t.header({"threads", "CNA strong", "CNA weakened", "MCS baseline",
            "bpa strong", "bpa weak", "bpa mcs"});
  bool all_correct = true;
  double delta_at_max = 0;
  for (std::size_t ti = 0; ti < kThreads.size(); ++ti) {
    const std::uint32_t threads = kThreads[ti];
    const LockResult& strong = res[ti * cols + 0];
    const LockResult& weak = res[ti * cols + 1];
    const LockResult& mcs = res[ti * cols + 2];
    all_correct &= strong.correct && weak.correct && mcs.correct;
    const double base = mcs.acq_per_sec;
    t.row({std::to_string(threads),
           TextTable::num(bench::ratio(strong.acq_per_sec, base), 2) + "x",
           TextTable::num(bench::ratio(weak.acq_per_sec, base), 2) + "x",
           "1.00x", TextTable::num(bpa(strong, threads), 2),
           TextTable::num(bpa(weak, threads), 2),
           TextTable::num(bpa(mcs, threads), 2)});
    if (threads == kThreads.back())
      delta_at_max = bpa(strong, threads) - bpa(weak, threads);
  }
  t.note("bpa = retired dmb/dsb instructions per acquisition (exact core");
  t.note("stats, not sampled); LDAR/STLR are not standalone barriers, so");
  t.note("the weakened handoff only pays the structural enqueue dmb st");
  t.print();

  // The edge table gives the static per-handoff dmb count for each
  // strength; the dynamic delta at saturation must agree with it.
  const std::uint32_t static_strong =
      handoff_edges(LockFamily::kCna, Strength::kStrong).dmbs();
  const std::uint32_t static_weak =
      handoff_edges(LockFamily::kCna, Strength::kWeakened).dmbs();
  std::printf("  static handoff dmbs: strong=%u weakened=%u; dynamic delta "
              "at %u threads: %.2f/acq\n",
              static_strong, static_weak, kThreads.back(), delta_at_max);

  ctx.metric("bpa_delta_at_max_threads", delta_at_max);
  ctx.metric("static_handoff_delta",
             static_cast<double>(static_strong - static_weak));
  ctx.check(all_correct, "every variant's CS counter is exact at every "
                         "thread count (mutual exclusion held)");
  ctx.check(delta_at_max > 0.5 * (static_strong - static_weak) &&
                delta_at_max < 1.05 * (static_strong - static_weak),
            "dynamic barrier savings per acquisition approach the static "
            "per-handoff count of the verified edge table");
}

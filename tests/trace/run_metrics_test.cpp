// RunConfig::metrics: the simulator feeds counters and latency histograms
// straight from its hook sites, with no tracer involved. The ring trace of
// the same run is the reference: rebuilding a registry from its events the
// way the metric definitions read must give exactly the directly fed one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fault/fault.hpp"
#include "sim/machine.hpp"
#include "sim/verify.hpp"
#include "simprog/abstract_model.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace armbar::sim {
namespace {

namespace metric = trace::metric;

/// The metric definitions, applied to a ring's events, one sample at a
/// time.
trace::MetricsRegistry registry_from_ring(const trace::Tracer& t) {
  trace::MetricsRegistry reg;
  const auto sample = [&](const char* name, std::uint64_t v) {
    trace::Histogram h;
    h.add(v);
    reg.merge(name, h);
  };
  for (const trace::Event& e : t.snapshot()) {
    switch (e.kind) {
      case trace::EventKind::kInstrIssue:
        reg.inc(metric::kInstrs);
        break;
      case trace::EventKind::kStall:
        reg.inc(std::string(metric::kStallPrefix) + t.stall_cause_name(e.detail),
                e.end - e.begin);
        break;
      case trace::EventKind::kSquash:
        reg.inc(metric::kSquashes);
        break;
      case trace::EventKind::kBarrierIssue:
        reg.inc(metric::kBarriers);
        break;
      case trace::EventKind::kSbDrainRetire:
        sample(metric::kSbResidency, e.b);
        break;
      case trace::EventKind::kCohTransfer:
        sample(metric::kCohTransfer, e.b);
        if (e.detail == static_cast<std::uint8_t>(trace::CohKind::kGetMRemote))
          sample(metric::kRemoteInv, e.b);
        break;
      case trace::EventKind::kBarrierTxn:
        sample(metric::kBarrierTxn, e.b);
        break;
      case trace::EventKind::kBarrierComplete:
        sample(metric::kBarrierComplete, e.b);
        break;
      default:
        break;
    }
  }
  return reg;
}

constexpr int kStores = 10;

/// One core: kStores rounds of a store to a fresh line and a DMB full.
Program store_fence_loop() {
  Asm a;
  a.movi(X0, 0x1000).movi(X2, 0);
  a.label("loop");
  a.str(X2, X0, 0);
  a.dmb_full();
  a.addi(X0, X0, 64);
  a.addi(X2, X2, 1);
  a.cmpi(X2, kStores);
  a.blt("loop");
  a.halt();
  return a.take("store-fence");
}

TEST(RunMetrics, HooksFeedMetrics) {
  // Run once with metrics and a 4-event ring that wraps many times, once
  // with a ring large enough to keep everything as the reference.
  trace::MetricsRegistry reg;
  trace::Tracer tiny(4);  // metrics must not depend on ring survival
  Machine m(kunpeng916(), 1u << 20);
  m.load_program(0, store_fence_loop());
  RunConfig cfg;
  cfg.tracer = &tiny;
  cfg.metrics = &reg;
  const RunResult res = m.run(cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(tiny.dropped(), 0u);

  trace::Tracer full(1u << 14);
  Machine ref(kunpeng916(), 1u << 20);
  ref.load_program(0, store_fence_loop());
  RunConfig ref_cfg;
  ref_cfg.tracer = &full;
  ref.run(ref_cfg);
  ASSERT_EQ(full.dropped(), 0u);
  std::uint64_t sb_sum = 0;
  std::uint64_t bc_min = ~0ULL;
  for (const trace::Event& e : full.snapshot()) {
    if (e.kind == trace::EventKind::kSbDrainRetire) sb_sum += e.b;
    if (e.kind == trace::EventKind::kBarrierComplete && e.b < bc_min) bc_min = e.b;
  }

  const CoreStats& s = res.cores.at(0);
  EXPECT_EQ(reg.counter(metric::kInstrs), s.instructions);
  EXPECT_EQ(reg.counter("stall_cycles.barrier"),
            s.stall_cycles[static_cast<int>(StallCause::kBarrier)]);
  EXPECT_GT(reg.counter("stall_cycles.barrier"), 0u);
  const trace::Histogram bc = reg.histogram(metric::kBarrierComplete);
  EXPECT_EQ(bc.count(), static_cast<std::uint64_t>(kStores));
  EXPECT_EQ(bc.min(), bc_min);
  const trace::Histogram sb = reg.histogram(metric::kSbResidency);
  EXPECT_EQ(sb.count(), static_cast<std::uint64_t>(kStores));
  EXPECT_EQ(sb.sum(), sb_sum);
}

TEST(RunMetrics, FailedRunRecordsNothing) {
  // Metrics fold in when the run returns, so a run that throws (here a
  // livelocked drain the watchdog catches) leaves the registry untouched.
  fault::FaultPlan plan;
  plan.sb_stall_pm = 1000;
  plan.sb_stall_cycles = 100;
  Machine m(rpi4(), 1u << 20);
  Asm a;
  a.movi(X0, 0x1000).movi(X1, 7);
  a.str(X1, X0, 0);
  a.dsb_full();
  a.halt();
  m.load_program(0, a.take("livelock"));
  trace::MetricsRegistry reg;
  RunConfig cfg;
  cfg.watchdog_cycles = 20'000;
  cfg.fault = &plan;
  cfg.metrics = &reg;
  EXPECT_THROW((void)m.run(cfg), SimHang);
  EXPECT_TRUE(reg.empty()) << "a run that never finished must not feed metrics";
}

/// A loop whose forward branch on a loaded zero is predicted not-taken
/// but taken, so every iteration squashes.
Program squash_loop(std::uint32_t iters) {
  Asm a;
  a.movi(X0, simprog::kBufA).movi(X20, 0);
  a.label("loop");
  a.ldr(X1, X0, 0);
  a.cbz(X1, "skip");
  a.nop();
  a.label("skip");
  a.str(X20, X0, 64);
  a.addi(X20, X20, 1);
  a.cmpi(X20, iters);
  a.blt("loop");
  a.halt();
  return a.take("squash-loop");
}

/// `prog` on every core in `cores`, over the same buffers.
void run_on(const PlatformSpec& spec, const Program& prog,
            const std::vector<CoreId>& cores, trace::Tracer* ring,
            trace::MetricsRegistry* metrics) {
  Machine m(spec, 64u << 20);
  for (const CoreId c : cores) m.load_program(c, prog);
  RunConfig cfg;
  cfg.tracer = ring;
  cfg.metrics = metrics;
  ASSERT_TRUE(m.run(cfg).completed);
}

TEST(RunMetrics, DirectFeedEqualsTheRing) {
  using simprog::BarrierLoc;
  using simprog::OrderChoice;
  constexpr std::uint32_t kIters = 40;
  // Every program runs as a pair on the first and last core; the first
  // also runs on cores 0, 1, 2 and the last at once, so several cores feed
  // the run's one histogram set.
  const std::vector<Program> progs = {
      simprog::make_store_store_model(OrderChoice::kDmbFull, BarrierLoc::kLoc1,
                                      4, kIters, simprog::kBufA,
                                      simprog::kBufB),
      simprog::make_store_store_model(OrderChoice::kDmbSt, BarrierLoc::kLoc2, 4,
                                      kIters, simprog::kBufA, simprog::kBufB),
      simprog::make_load_store_model(OrderChoice::kIsb, BarrierLoc::kLoc1, 4,
                                     kIters, simprog::kBufA, simprog::kBufB),
      simprog::make_load_store_model(OrderChoice::kDsbFull, BarrierLoc::kLoc2,
                                     4, kIters, simprog::kBufA, simprog::kBufB),
      squash_loop(kIters),
  };
  trace::MetricsRegistry seen;  // which metrics the sweep exercised at all
  for (const PlatformSpec& spec : all_platforms()) {
    const CoreId far = spec.total_cores() - 1;  // cross-cluster / cross-node
    const auto check = [&](const std::string& what, const auto& run) {
      trace::Tracer ring(1u << 16);
      trace::MetricsRegistry direct;
      run(&ring, &direct);
      ASSERT_EQ(ring.dropped(), 0u) << "raise the ring capacity: " << what;
      const trace::MetricsRegistry rebuilt = registry_from_ring(ring);
      EXPECT_EQ(direct.to_json().dump(), rebuilt.to_json().dump()) << what;
      EXPECT_TRUE(direct == rebuilt) << what;
      seen.merge(direct);
    };
    for (const Program& p : progs)
      check(spec.name + " " + p.name,
            [&](trace::Tracer* ring, trace::MetricsRegistry* direct) {
              simprog::run_pair(spec, p, kIters, 0, far, ring, direct);
            });
    check(spec.name + " " + progs[0].name + " on 4 cores",
          [&](trace::Tracer* ring, trace::MetricsRegistry* direct) {
            run_on(spec, progs[0], {0, 1, 2, far}, ring, direct);
          });
  }
  for (const char* name :
       {metric::kBarrierComplete, metric::kBarrierTxn, metric::kSbResidency,
        metric::kCohTransfer, metric::kRemoteInv})
    EXPECT_GT(seen.histogram(name).count(), 0u) << name << " never fed";
  for (const char* name : {metric::kInstrs, metric::kBarriers, metric::kSquashes})
    EXPECT_GT(seen.counter(name), 0u) << name << " never counted";
}

}  // namespace
}  // namespace armbar::sim

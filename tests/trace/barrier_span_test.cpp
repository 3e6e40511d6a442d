// Integration: a traced Machine run must (a) leave cycle counts
// bit-identical to an untraced run, (b) pair every barrier-issue with a
// completion span, and (c) mirror the stall accounting exactly — summing a
// core's kBarrier stall spans reproduces stats().stall_cycles[kBarrier].
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/machine.hpp"
#include "trace/trace.hpp"

namespace armbar::sim {
namespace {

constexpr Addr kData = 0x1000;
constexpr Addr kFlag = 0x8000;
constexpr int kRounds = 6;

Program producer() {
  Asm a;
  a.movi(X0, kData).movi(X1, kFlag).movi(X2, 0);
  a.label("loop");
  a.addi(X2, X2, 1);
  a.str(X2, X0);
  a.dmb_full();
  a.str(X2, X1);
  a.cmpi(X2, kRounds);
  a.blt("loop");
  a.halt();
  return a.take("producer");
}

Program consumer() {
  Asm a;
  a.movi(X0, kData).movi(X1, kFlag);
  a.label("wait");
  a.ldr(X3, X1);
  a.cmpi(X3, kRounds);
  a.blt("wait");
  a.ldr(X4, X0);
  a.halt();
  return a.take("consumer");
}

struct TracedRun {
  RunResult res;
  std::vector<trace::Event> events;
  std::uint64_t barrier_stall[2] = {};  // per loaded core, in load order
};

TracedRun run_mp(trace::Tracer* tracer, CoreId c0 = 0, CoreId c1 = 1,
                 trace::MetricsRegistry* metrics = nullptr) {
  Machine m(kunpeng916());
  if (tracer) m.set_tracer(tracer);
  const Program p = producer();
  const Program c = consumer();
  m.load_program(c0, p);
  m.load_program(c1, c);
  TracedRun out;
  RunConfig cfg;
  cfg.metrics = metrics;
  out.res = m.run(cfg);
  EXPECT_TRUE(out.res.completed);
  if (tracer) out.events = tracer->snapshot();
  out.barrier_stall[0] =
      m.core(c0).stats().stall_cycles[static_cast<int>(StallCause::kBarrier)];
  out.barrier_stall[1] =
      m.core(c1).stats().stall_cycles[static_cast<int>(StallCause::kBarrier)];
  return out;
}

TEST(BarrierSpans, TracedRunIsBitIdenticalToUntraced) {
  trace::Tracer tracer(1u << 18);
  const TracedRun plain = run_mp(nullptr);
  const TracedRun traced = run_mp(&tracer);

  EXPECT_EQ(plain.res.cycles, traced.res.cycles);
  ASSERT_EQ(plain.res.cores.size(), traced.res.cores.size());
  for (std::size_t i = 0; i < plain.res.cores.size(); ++i) {
    EXPECT_EQ(plain.res.cores[i].instructions, traced.res.cores[i].instructions);
    EXPECT_EQ(plain.res.cores[i].halted_at, traced.res.cores[i].halted_at);
    EXPECT_EQ(plain.res.cores[i].total_stalls(), traced.res.cores[i].total_stalls());
  }
  EXPECT_EQ(plain.res.mem.getm_remote, traced.res.mem.getm_remote);
  EXPECT_GT(tracer.emitted(), 0u);
}

TEST(BarrierSpans, EveryIssueHasACompletionSpan) {
  trace::Tracer tracer(1u << 18);
  const TracedRun r = run_mp(&tracer);
  ASSERT_EQ(tracer.dropped(), 0u) << "raise capacity; pairing needs all events";

  int issues = 0, completes = 0;
  Cycle last_issue = 0;
  for (const auto& e : r.events) {
    if (e.core != 0) continue;
    if (e.kind == trace::EventKind::kBarrierIssue) {
      ++issues;
      last_issue = e.begin;
    } else if (e.kind == trace::EventKind::kBarrierComplete) {
      ++completes;
      // The completion span starts no later than one cycle after issue
      // (the pipe blocks from issue+1) and must not end before it starts.
      EXPECT_LE(e.begin, last_issue + 1);
      EXPECT_GE(e.end, e.begin);
      EXPECT_EQ(e.detail, static_cast<std::uint8_t>(Op::kDmbFull));
    }
  }
  EXPECT_EQ(issues, kRounds);
  EXPECT_EQ(completes, issues) << "unpaired barrier span";
}

TEST(BarrierSpans, StallSpansSumToCoreStats) {
  trace::Tracer tracer(1u << 18);
  const TracedRun r = run_mp(&tracer);
  ASSERT_EQ(tracer.dropped(), 0u);

  std::map<CoreId, std::uint64_t> span_sum;
  for (const auto& e : r.events)
    if (e.kind == trace::EventKind::kStall &&
        e.detail == static_cast<std::uint8_t>(StallCause::kBarrier))
      span_sum[e.core] += e.end - e.begin;

  EXPECT_GT(span_sum[0], 0u) << "the producer's DMBs must block the pipe";
  EXPECT_EQ(span_sum[0], r.barrier_stall[0]);
  EXPECT_EQ(span_sum[1], r.barrier_stall[1]);
}

TEST(BarrierSpans, CrossNodeBindingAlsoBalances) {
  trace::Tracer tracer(1u << 18);
  const TracedRun r = run_mp(&tracer, 0, 32);  // cross-NUMA on kunpeng916
  ASSERT_EQ(tracer.dropped(), 0u);

  std::uint64_t span_sum = 0;
  bool saw_remote = false;
  for (const auto& e : r.events) {
    if (e.kind == trace::EventKind::kStall && e.core == 0 &&
        e.detail == static_cast<std::uint8_t>(StallCause::kBarrier))
      span_sum += e.end - e.begin;
    if (e.kind == trace::EventKind::kCohTransfer &&
        (e.detail == static_cast<std::uint8_t>(trace::CohKind::kGetSRemote) ||
         e.detail == static_cast<std::uint8_t>(trace::CohKind::kGetMRemote)))
      saw_remote = true;
  }
  EXPECT_EQ(span_sum, r.barrier_stall[0]);
  EXPECT_TRUE(saw_remote) << "cross-node MP must produce remote transfers";
}

TEST(BarrierSpans, MetricsHistogramCountsBarriers) {
  trace::MetricsRegistry reg;
  run_mp(nullptr, 0, 1, &reg);  // RunConfig::metrics: no tracer needed

  EXPECT_EQ(reg.counter(trace::metric::kBarriers), kRounds);
  const trace::Histogram h = reg.histogram(trace::metric::kBarrierComplete);
  EXPECT_EQ(h.count(), kRounds);
  EXPECT_GT(h.min(), 0u);
  // Metric keys carry stall-cause names, not numeric codes.
  EXPECT_GT(reg.counter("stall_cycles.barrier"), 0u);
}

}  // namespace
}  // namespace armbar::sim

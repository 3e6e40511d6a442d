// Chaos harness for the host locks (ISSUE 9 satellite): every lock family
// hammered under seeded timing perturbation. The simulator-side fault
// plans (fuzz::FaultPlan) stall cores and reorder retirement; the host
// analogue injects scheduler noise — per-thread seeded yields, short
// sleeps and busy spins around and inside the critical sections — so
// handoff races (enqueue-vs-release, secondary-queue splices, combiner
// rotation) actually interleave instead of running in lockstep. Each
// (lock, seed) cell re-checks mutual exclusion via the non-atomic counter
// and the per-thread checksum.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "locks/ccsynch.hpp"
#include "locks/cna.hpp"
#include "locks/ffwd.hpp"
#include "locks/ticket_lock.hpp"

namespace armbar::locks {
namespace {

constexpr int kThreads = 4;
constexpr int kIters = 400;
constexpr std::uint64_t kSeeds[] = {1, 2026, 0xc0ffee};

struct Counter {
  std::uint64_t value = 0;
  std::uint64_t checksum = 0;
};

// One perturbation draw: mostly nothing (the hot path must stay hot), a
// yield, a busy spin, or — rarely — a real sleep that parks the thread
// mid-protocol.
void perturb(Rng& rng) {
  switch (rng.below(16)) {
    case 0:
      std::this_thread::yield();
      break;
    case 1: {
      volatile std::uint64_t sink = 0;
      for (std::uint64_t i = 0; i < 64 + rng.below(192); ++i) sink = sink + i;
      break;
    }
    case 2:
      std::this_thread::sleep_for(std::chrono::microseconds(rng.below(60)));
      break;
    default:
      break;
  }
}

std::uint64_t chaotic_cs(void* ctx, std::uint64_t arg) {
  auto* c = static_cast<Counter*>(ctx);
  const std::uint64_t v = c->value;  // non-atomic RMW: mutex-protected only
  // arg packs (thread weight | rng draw): an occasional in-CS stall widens
  // the window in which a broken handoff would admit a second holder.
  if ((arg >> 32) == 0) std::this_thread::yield();
  c->checksum += arg & 0xffffffffu;
  c->value = v + 1;
  return v;
}

/// Run `kThreads` workers; `per_thread(t)` builds the thread's executor
/// closure once (FFWD clients / CC-Synch handles live on the thread).
template <typename MakeExec>
void chaos_hammer(std::uint64_t seed, Counter& c, MakeExec make_exec) {
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([seed, t, &c, &make_exec] {
      auto exec = make_exec(t);
      Rng rng(seed * 0x9e3779b97f4a7c15ULL + t);
      for (int i = 0; i < kIters; ++i) {
        perturb(rng);
        const std::uint64_t stall = rng.below(24);  // 0 => yield inside CS
        exec((stall << 32) | static_cast<std::uint64_t>(t + 1));
        perturb(rng);
      }
    });
  }
  for (auto& th : ts) th.join();
}

void expect_exact(const Counter& c, const std::string& what) {
  EXPECT_EQ(c.value, static_cast<std::uint64_t>(kThreads) * kIters) << what;
  EXPECT_EQ(c.checksum,
            static_cast<std::uint64_t>(kIters) * (1 + 2 + 3 + 4))
      << what;
}

TEST(LockChaos, TicketLockUnderSeededPerturbation) {
  for (std::uint64_t seed : kSeeds) {
    TicketLock lock;
    Counter c;
    chaos_hammer(seed, c, [&](int) {
      return [&](std::uint64_t arg) { lock.execute(chaotic_cs, &c, arg); };
    });
    expect_exact(c, "ticket seed " + std::to_string(seed));
  }
}

TEST(LockChaos, McsLockUnderSeededPerturbation) {
  for (std::uint64_t seed : kSeeds) {
    McsLock lock;
    Counter c;
    chaos_hammer(seed, c, [&](int) {
      return [&](std::uint64_t arg) { lock.execute(chaotic_cs, &c, arg); };
    });
    expect_exact(c, "mcs seed " + std::to_string(seed));
  }
}

TEST(LockChaos, CnaStrongAndWeakenedUnderSeededPerturbation) {
  Topology split;
  split.sockets = 2;
  split.cores_per_socket = 1;  // cpu ids alternate sockets: scans + splices
  for (std::uint64_t seed : kSeeds) {
    for (const bool weakened : {false, true}) {
      CnaLock::Config cfg = weakened ? CnaLock::Config::weakened(split)
                                     : CnaLock::Config::strong(split);
      cfg.local_handoff_cap = 2;
      CnaLock lock(cfg);
      Counter c;
      chaos_hammer(seed, c, [&](int) {
        return [&](std::uint64_t arg) { lock.execute(chaotic_cs, &c, arg); };
      });
      expect_exact(c, std::string("cna ") +
                          (weakened ? "weakened" : "strong") + " seed " +
                          std::to_string(seed));
    }
  }
}

TEST(LockChaos, FfwdUnderSeededPerturbation) {
  for (std::uint64_t seed : kSeeds) {
    FfwdLock::Config cfg;
    cfg.max_clients = kThreads;
    FfwdLock lock(cfg);
    Counter c;
    chaos_hammer(seed, c, [&](int) {
      const std::size_t id = lock.register_client();
      return [&lock, &c, id](std::uint64_t arg) {
        lock.execute_as(id, chaotic_cs, &c, arg);
      };
    });
    expect_exact(c, "ffwd seed " + std::to_string(seed));
  }
}

TEST(LockChaos, CcSynchSmallBudgetUnderSeededPerturbation) {
  for (std::uint64_t seed : kSeeds) {
    CcSynchLock::Config cfg;
    cfg.combine_budget = 2;  // frequent combiner handoffs under noise
    CcSynchLock lock(cfg);
    Counter c;
    chaos_hammer(seed, c, [&](int) {
      auto h = std::make_shared<CcSynchLock::Handle>(lock);
      return [h, &c](std::uint64_t arg) {
        h->execute(chaotic_cs, &c, arg);
      };
    });
    expect_exact(c, "ccsynch seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace armbar::locks

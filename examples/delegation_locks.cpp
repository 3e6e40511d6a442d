// Delegation locks in practice: a shared sorted list exercised through the
// same Executor interface under a ticket lock, a CC-Synch combining lock,
// and the Pilot-optimized combining lock (paper §5).
//
//   $ ./delegation_locks [threads] [rounds]    # 1..256 threads, default 4
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ds/ds.hpp"
#include "locks/ccsynch.hpp"
#include "locks/ffwd.hpp"
#include "locks/ticket_lock.hpp"
#include "runner/arg_parser.hpp"

using namespace armbar;

namespace {

double exercise(locks::Executor& lock, const char* label, unsigned threads,
                int rounds) {
  ds::SortedList list(lock);
  for (std::uint64_t k = 0; k < 50; ++k) list.insert(k * 3);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&list, t, rounds] {
      Rng rng(t + 1);
      for (int r = 0; r < rounds; ++r) {
        for (int q = 0; q < 10; ++q) list.contains(rng.below(150));
        const std::uint64_t key = 1000 + t * 100000 + r;
        list.insert(key);
        list.remove(key);
      }
    });
  }
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(t1 - t0).count();
  const bool intact = list.size_unlocked() == 50;
  std::printf("  %-22s %8.2f ms   list %s\n", label, s * 1e3,
              intact ? "intact" : "CORRUPTED");
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t n_threads = 4, n_rounds = 2000;
  std::string err;
  if ((argc > 1 && !runner::parse_int_option("threads", argv[1], 1, 256,
                                             &n_threads, &err)) ||
      (argc > 2 && !runner::parse_int_option("rounds", argv[2], 0, INT32_MAX,
                                             &n_rounds, &err))) {
    std::fprintf(stderr, "delegation_locks: %s\n", err.c_str());
    return 2;
  }
  const auto threads = static_cast<unsigned>(n_threads);
  const auto rounds = static_cast<int>(n_rounds);

  std::printf("Delegation lock demo — sorted list, %u threads x %d rounds\n",
              threads, rounds);
  std::printf("(the paper's Fig 8(b) workload: 10 queries : 1 insert : 1 remove)\n\n");

  {
    locks::TicketLock lock;
    exercise(lock, "ticket lock", threads, rounds);
  }
  {
    locks::McsLock lock;
    exercise(lock, "MCS lock", threads, rounds);
  }
  {
    locks::CcSynchLock lock;
    exercise(lock, "CC-Synch (DSynch)", threads, rounds);
  }
  {
    locks::CcSynchLock::Config cfg;
    cfg.use_pilot = true;
    locks::CcSynchLock lock(cfg);
    exercise(lock, "CC-Synch + Pilot", threads, rounds);
  }
  {
    locks::FfwdLock::Config cfg;
    cfg.max_clients = threads + 1;
    locks::FfwdLock lock(cfg);
    exercise(lock, "FFWD", threads, rounds);
  }
  {
    locks::FfwdLock::Config cfg;
    cfg.max_clients = threads + 1;
    cfg.use_pilot = true;
    locks::FfwdLock lock(cfg);
    exercise(lock, "FFWD + Pilot", threads, rounds);
  }

  std::printf("\nHost wall-clock only demonstrates correctness; the ARM barrier\n");
  std::printf("costs are measured in bench/fig7b_delegation and fig7c_pilot_locks.\n");
  return 0;
}

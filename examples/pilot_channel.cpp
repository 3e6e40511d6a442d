// Pilot in practice: a host-side (real threads) producer-consumer over a
// Pilot ring buffer versus a barrier-based ring — the paper's §4 applied
// through the library's public API.
//
//   $ ./pilot_channel [messages]
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "runner/arg_parser.hpp"
#include "spsc/ring.hpp"

using namespace armbar;

namespace {

template <typename Ring>
double run(Ring& ring, std::uint64_t messages, std::uint64_t& checksum_out) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t checksum = 0;
  std::thread consumer([&] {
    for (std::uint64_t i = 0; i < messages; ++i) checksum += ring.pop();
  });
  for (std::uint64_t i = 0; i < messages; ++i) ring.push(i * 7);
  consumer.join();
  const auto t1 = std::chrono::steady_clock::now();
  checksum_out = checksum;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t n_messages = 200000;
  std::string err;
  if (argc > 1 && !runner::parse_int_option("messages", argv[1], 0, INT64_MAX,
                                            &n_messages, &err)) {
    std::fprintf(stderr, "pilot_channel: %s\n", err.c_str());
    return 2;
  }
  const auto messages = static_cast<std::uint64_t>(n_messages);
  const std::uint64_t expect = (messages - 1) * messages / 2 * 7;

  std::printf("Pilot channel demo — %llu messages (host threads, %s)\n\n",
              static_cast<unsigned long long>(messages),
              arch::native_arm() ? "native AArch64 barriers"
                                 : "portable x86 fallbacks");

  {
    spsc::BarrierRing::Config cfg;  // the paper's best combo: DMB ld - DMB st
    cfg.avail_barrier = arch::Barrier::kDmbLd;
    cfg.publish_barrier = arch::Barrier::kDmbSt;
    spsc::BarrierRing ring(64, cfg);
    std::uint64_t checksum = 0;
    const double s = run(ring, messages, checksum);
    std::printf("  barrier ring (DMB ld - DMB st): %8.2f ms  checksum %s\n",
                s * 1e3, checksum == expect ? "OK" : "BAD");
  }
  {
    spsc::PilotRing ring(64);
    std::uint64_t checksum = 0;
    const double s = run(ring, messages, checksum);
    std::printf("  pilot ring   (no publish barrier): %6.2f ms  checksum %s\n",
                s * 1e3, checksum == expect ? "OK" : "BAD");
  }

  std::printf(
      "\nNote: on a non-ARM host both rings compile to cheap fences, so the\n"
      "times are similar here; the ARM cost model lives in bench/fig6b_pilot.\n");
  return 0;
}

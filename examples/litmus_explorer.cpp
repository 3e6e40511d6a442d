// Litmus explorer: run the message-passing shape across barrier choices
// and memory models and print the outcome histograms — a compact tour of
// the paper's Table 1 machinery.
//
//   $ ./litmus_explorer
#include <cstdio>

#include "litmus/litmus.hpp"

using namespace armbar;
using namespace armbar::litmus;

namespace {

void explore(const char* label, sim::Op barrier, bool tso, bool cross_node) {
  LitmusConfig cfg;
  cfg.platform = sim::kunpeng916();
  cfg.binding = {CoreId{0}, CoreId{cross_node ? 32u : 1u}};
  cfg.tso = tso;
  auto report = run_litmus(make_mp(barrier), cfg);
  std::printf("%-28s weak(data!=23): %5llu / %llu runs  %s\n", label,
              static_cast<unsigned long long>(report.count({1, 0})),
              static_cast<unsigned long long>(report.runs),
              report.saw({1, 0}) ? "ALLOWED" : "forbidden");
}

}  // namespace

int main() {
  std::printf("MP litmus explorer — kunpeng916 model\n");
  std::printf("producer: data=23; [barrier]; flag=1   consumer: poll flag, read data\n\n");

  explore("WMM, no barrier", sim::Op::kNop, false, false);
  explore("WMM, no barrier, cross-node", sim::Op::kNop, false, true);
  explore("WMM + DMB ishst", sim::Op::kDmbSt, false, false);
  explore("WMM + DMB ish", sim::Op::kDmbFull, false, false);
  explore("WMM + DSB ish", sim::Op::kDsbFull, false, false);
  explore("WMM + DMB ishld (wrong!)", sim::Op::kDmbLd, false, false);
  explore("TSO, no barrier", sim::Op::kNop, true, false);

  std::printf("\nThe 'wrong' row is Table 3's point: DMB ld does not order the\n");
  std::printf("producer's two stores; store->store needs DMB st (or STLR/Pilot).\n");
  return 0;
}

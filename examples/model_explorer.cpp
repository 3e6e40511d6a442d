// Interactive model explorer: run any abstracted model with any barrier on
// any platform from the command line — the workhorse for "what would this
// cost on an ARM server?" questions.
//
//   $ ./model_explorer --platform kunpeng916 --model store-store ...
//       --choice "DMB full" --loc 1 --nops 150 --cross
//   $ ./model_explorer --list
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "simprog/abstract_model.hpp"

using namespace armbar;
using namespace armbar::simprog;

namespace {

const std::vector<std::pair<std::string, OrderChoice>> kChoices = {
    {"none", OrderChoice::kNone},       {"DMB full", OrderChoice::kDmbFull},
    {"DMB st", OrderChoice::kDmbSt},    {"DMB ld", OrderChoice::kDmbLd},
    {"DSB full", OrderChoice::kDsbFull},{"DSB st", OrderChoice::kDsbSt},
    {"DSB ld", OrderChoice::kDsbLd},    {"ISB", OrderChoice::kIsb},
    {"LDAR", OrderChoice::kLdar},       {"LDAPR", OrderChoice::kLdapr},
    {"STLR", OrderChoice::kStlr},       {"CTRL+ISB", OrderChoice::kCtrlIsb},
    {"CTRL", OrderChoice::kCtrl},       {"DATA", OrderChoice::kDataDep},
    {"ADDR", OrderChoice::kAddrDep},
};

void usage() {
  std::printf(
      "model_explorer — run one abstracted barrier model on the simulator\n\n"
      "  --platform NAME   kunpeng916 | kirin960 | kirin970 | rpi4\n"
      "  --model NAME      intrinsic | store-store | load-store\n"
      "  --choice NAME     barrier / ordering approach (see --list)\n"
      "  --loc N           barrier location: 1 (after RMR) or 2 (after nops)\n"
      "  --nops N          nops between the two memory operations\n"
      "  --iters N         loop iterations (default 1000)\n"
      "  --cross           bind the two threads to different NUMA nodes\n"
      "  --disasm          print the generated program\n"
      "  --list            print the available choices and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string platform = "kunpeng916", model = "store-store", choice = "DMB full";
  int loc = 1;
  std::uint32_t nops = 150, iters = 1000;
  bool cross = false, disasm = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--platform") platform = next();
    else if (arg == "--model") model = next();
    else if (arg == "--choice") choice = next();
    else if (arg == "--loc") loc = std::atoi(next());
    else if (arg == "--nops") nops = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--iters") iters = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--cross") cross = true;
    else if (arg == "--disasm") disasm = true;
    else if (arg == "--list") {
      std::printf("choices:");
      for (const auto& [name, c] : kChoices) std::printf(" '%s'", name.c_str());
      std::printf("\nmodels: intrinsic, store-store, load-store\n");
      return 0;
    } else {
      usage();
      return arg == "--help" ? 0 : 1;
    }
  }

  OrderChoice oc = OrderChoice::kNone;
  bool found = false;
  for (const auto& [name, c] : kChoices)
    if (name == choice) {
      oc = c;
      found = true;
    }
  if (!found) {
    std::fprintf(stderr, "unknown choice '%s' (try --list)\n", choice.c_str());
    return 1;
  }

  const auto spec = sim::platform_by_name(platform);
  const BarrierLoc bl = loc == 1 ? BarrierLoc::kLoc1
                        : loc == 2 ? BarrierLoc::kLoc2 : BarrierLoc::kNone;

  Program p = [&] {
    if (model == "intrinsic") return make_intrinsic_model(oc, nops, iters);
    if (model == "load-store")
      return make_load_store_model(oc, bl, nops, iters, kBufA, kBufB);
    return make_store_store_model(oc, bl, nops, iters, kBufA, kBufB);
  }();

  if (disasm) std::printf("%s\n", p.disassemble().c_str());

  double thr;
  if (model == "intrinsic") {
    thr = run_single(spec, p, iters);
  } else {
    const CoreId peer = cross ? spec.cores_per_node : 1;
    thr = run_pair(spec, p, iters, 0, peer);
  }
  std::printf("%s / %s / %s loc=%d nops=%u %s: %.2f x 10^6 loops/s\n",
              platform.c_str(), model.c_str(), to_string(oc).c_str(), loc, nops,
              cross ? "cross-node" : "same-node", thr / 1e6);
  return 0;
}

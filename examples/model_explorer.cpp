// Interactive model explorer: run any abstracted model with any barrier on
// any platform from the command line — the workhorse for "what would this
// cost on an ARM server?" questions.
//
//   $ ./model_explorer --platform kunpeng916 --model store-store ...
//       --choice "DMB full" --loc 1 --nops 150 --cross
//   $ ./model_explorer --list
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/arg_parser.hpp"
#include "sim/platform.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  runner::ArgParser args(
      "model_explorer", "Run one abstracted barrier model on the simulator.");
  args.add_value("platform", "NAME", "kunpeng916 | kirin960 | kirin970 | rpi4",
                 "kunpeng916");
  args.add_value("model", "NAME", "intrinsic | store-store | load-store",
                 "store-store");
  args.add_value("choice", "NAME", "barrier / ordering approach (see --list)",
                 "DMB full");
  args.add_int("loc", "N",
               "barrier location: 1 (after RMR), 2 (after nops) or 0 (none)",
               1, 0, 2);
  args.add_int("nops", "N", "nops between the two memory operations", 150, 0,
               100'000);
  args.add_int("iters", "N", "loop iterations", 1000, 1, 10'000'000);
  args.add_flag("cross", "bind the two threads to different NUMA nodes");
  args.add_flag("disasm", "print the generated program");
  args.add_flag("list", "print the available choices and exit");

  std::string err;
  if (!args.parse(argc, argv, &err)) {
    std::fprintf(stderr, "model_explorer: %s\n", err.c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  if (!args.positionals().empty()) {
    std::fprintf(stderr, "model_explorer: unexpected argument '%s'\n",
                 args.positionals().front().c_str());
    return 2;
  }
  if (args.given("list")) {
    std::printf("choices:");
    for (const auto& [name, c] : kChoices) std::printf(" '%s'", name.c_str());
    std::printf("\nmodels: intrinsic, store-store, load-store\n");
    return 0;
  }

  const std::string& platform = args.str("platform");
  const std::string& model = args.str("model");
  const std::string& choice = args.str("choice");
  const int loc = static_cast<int>(args.integer("loc"));
  const auto nops = static_cast<std::uint32_t>(args.integer("nops"));
  const auto iters = static_cast<std::uint32_t>(args.integer("iters"));
  const bool cross = args.given("cross");

  if (!sim::known_platform(platform, &err)) {
    std::fprintf(stderr, "model_explorer: --platform: %s\n", err.c_str());
    return 2;
  }
  if (model != "intrinsic" && model != "store-store" && model != "load-store") {
    std::fprintf(stderr,
                 "model_explorer: --model: unknown model '%s' (have: "
                 "intrinsic store-store load-store)\n",
                 model.c_str());
    return 2;
  }
  const auto it = std::find_if(kChoices.begin(), kChoices.end(),
                               [&](const auto& c) { return c.first == choice; });
  if (it == kChoices.end()) {
    std::fprintf(stderr,
                 "model_explorer: --choice: unknown choice '%s' (try --list)\n",
                 choice.c_str());
    return 2;
  }
  const OrderChoice oc = it->second;

  const auto spec = sim::platform_by_name(platform);
  if (cross && model != "intrinsic" && spec.nodes < 2) {
    std::fprintf(stderr, "model_explorer: --cross: %s has one NUMA node\n",
                 platform.c_str());
    return 2;
  }
  const BarrierLoc bl = loc == 1 ? BarrierLoc::kLoc1
                        : loc == 2 ? BarrierLoc::kLoc2 : BarrierLoc::kNone;

  Program p = [&] {
    if (model == "intrinsic") return make_intrinsic_model(oc, nops, iters);
    if (model == "load-store")
      return make_load_store_model(oc, bl, nops, iters, kBufA, kBufB);
    return make_store_store_model(oc, bl, nops, iters, kBufA, kBufB);
  }();

  if (args.given("disasm")) std::printf("%s\n", p.disassemble().c_str());

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

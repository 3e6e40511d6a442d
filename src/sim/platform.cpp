#include "sim/platform.hpp"

#include "common/check.hpp"

namespace armbar::sim {

PlatformSpec kunpeng916() {
  PlatformSpec p;
  p.name = "kunpeng916";
  p.arch = "Cortex-A72 (server)";
  p.nodes = 2;
  p.cores_per_node = 32;
  p.freq_ghz = 2.4;
  p.interconnect = "Hydra Interface (modelled: 2-level, deep)";
  // Server uncore: expensive coherence, very expensive synchronization
  // barrier transactions. inv_local/inv_remote are calibrated to the
  // paper's tipping points (~150 nops same-node, ~700 nops cross-node).
  p.lat.mem_local = 110;
  p.lat.mem_remote = 230;
  p.lat.c2c_local = 100;
  p.lat.c2c_remote = 330;
  p.lat.inv_local = 150;
  p.lat.inv_remote = 700;
  p.lat.bus_mem_local = 18;
  p.lat.bus_mem_cross = 70;
  p.lat.bus_sync = 550;
  // The store-release visibility acknowledgement is expensive on the deep
  // server uncore — this is what makes STLR land between DSB and DMB st
  // and *not* beat DMB full (Observation 3).
  p.lat.stlr_extra = 340;
  return p;
}

PlatformSpec kirin960() {
  PlatformSpec p;
  p.name = "kirin960";
  p.arch = "Cortex-A73 + Cortex-A53";
  p.nodes = 1;
  p.cores_per_node = 8;  // 4 big + 4 LITTLE; benches bind to the big cluster
  p.freq_ghz = 2.1;
  p.interconnect = "ARM CCI-550";
  // Mobile: simple single-level bus. Both coherence and barrier
  // transactions are an order of magnitude cheaper than the server
  // (Observation 4).
  p.lat.mem_local = 70;
  p.lat.mem_remote = 70;  // single node: never used, kept equal
  p.lat.c2c_local = 22;
  p.lat.c2c_remote = 22;
  p.lat.inv_local = 30;
  p.lat.inv_remote = 30;
  p.lat.bus_mem_local = 8;
  p.lat.bus_mem_cross = 8;
  p.lat.bus_sync = 46;
  p.lat.stlr_extra = 26;
  return p;
}

PlatformSpec kirin970() {
  PlatformSpec p = kirin960();
  p.name = "kirin970";
  p.freq_ghz = 2.36;
  // Same CCI-550 generation with a slightly faster uncore.
  p.lat.c2c_local = 20;
  p.lat.c2c_remote = 20;
  p.lat.inv_local = 28;
  p.lat.inv_remote = 28;
  p.lat.bus_sync = 42;
  p.lat.stlr_extra = 24;
  return p;
}

PlatformSpec rpi4() {
  PlatformSpec p;
  p.name = "rpi4";
  p.arch = "Cortex-A72";
  p.nodes = 1;
  p.cores_per_node = 4;
  p.freq_ghz = 1.5;
  p.interconnect = "unknown (modelled: simple single-level bus)";
  p.lat.mem_local = 90;
  p.lat.mem_remote = 90;
  p.lat.c2c_local = 26;
  p.lat.c2c_remote = 26;
  p.lat.inv_local = 38;
  p.lat.inv_remote = 38;
  p.lat.bus_mem_local = 10;
  p.lat.bus_mem_cross = 10;
  p.lat.bus_sync = 60;
  p.lat.stlr_extra = 34;
  return p;
}

std::vector<PlatformSpec> all_platforms() {
  return {kunpeng916(), kirin960(), kirin970(), rpi4()};
}

PlatformSpec platform_by_name(const std::string& name) {
  for (auto& p : all_platforms())
    if (p.name == name) return p;
  ARMBAR_CHECK_MSG(false, "unknown platform name");
}

bool known_platform(const std::string& name, std::string* err) {
  std::string have;
  for (const PlatformSpec& p : all_platforms()) {
    if (p.name == name) return true;
    have += ' ';
    have += p.name;
  }
  *err = "unknown platform '" + name + "' (have:" + have + ")";
  return false;
}

}  // namespace armbar::sim

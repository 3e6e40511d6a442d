// Bit-identity corpus for the fast-path interpreter (ISSUE 7).
//
// The predecode / scheduler / coherence fast paths must not move a single
// simulated cycle. This suite pins a 100-seed fuzz sample — final
// architectural state AND timing (total cycles, per-core instruction,
// stall, squash, and SB-retire counters) — across two platform presets,
// clean and chaos fault plans, and two start skews, as one FNV-1a digest
// per seed. Goldens were generated on the pre-fast-path simulator;
// any drift is a timing regression, not a refresh candidate.
//
// Regenerate ONLY for an intentional simulated-timing change:
//   ARMBAR_REGEN_GOLDEN=1 ./test_fuzz
// and justify the diff in review like any other behaviour change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/diff.hpp"
#include "fuzz/gen.hpp"
#include "sim/fault/fault.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"
#include "sim/program.hpp"

#ifndef ARMBAR_TEST_SOURCE_DIR
#error "ARMBAR_TEST_SOURCE_DIR must be defined by the build"
#endif

namespace armbar::fuzz {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kNumSeeds = 100;

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// One canonical line per run: coordinates, completion, total cycles,
/// observed final state, and the per-core timing counters. Everything the
/// fast path could plausibly perturb lands in the string.
void render_run(std::ostream& os, const model::ConcurrentProgram& prog,
                const sim::PlatformSpec& spec, const char* plan_tag,
                const sim::fault::FaultPlan* plan, std::uint32_t skew) {
  sim::Machine m(spec, 1u << 20);
  for (const auto& [addr, v] : prog.init) m.mem().poke(addr, v);
  std::vector<sim::Program> progs;
  progs.reserve(prog.threads.size());
  for (std::size_t t = 0; t < prog.threads.size(); ++t)
    progs.push_back(
        sim::insert_nops(prog.threads[t], 0,
                         skew * static_cast<std::uint32_t>(t + 1) % 32));
  for (std::size_t t = 0; t < progs.size(); ++t)
    m.load_program(static_cast<CoreId>(t), progs[t]);

  sim::RunConfig rc;
  rc.max_cycles = 10'000'000;
  rc.fault = plan;
  const sim::RunResult rr = m.run(rc);

  os << spec.name << '/' << plan_tag << "/skew" << skew << ':'
     << (rr.completed ? 'C' : 'T') << ' ' << rr.cycles << " |";
  for (std::uint64_t v : m.extract_state(prog.observe_regs, prog.observe_mem))
    os << ' ' << v;
  os << " |";
  for (const sim::CoreStats& cs : rr.cores)
    os << ' ' << cs.instructions << ',' << cs.total_stalls() << ','
       << cs.squashes << ',' << cs.sb_retired << ',' << cs.loads << ','
       << cs.stores << ',' << cs.barriers << ',' << cs.halted_at;
  os << '\n';
}

std::string digest_seed(std::uint64_t seed) {
  const model::ConcurrentProgram prog = generate(seed, GenOptions{});
  const sim::fault::FaultPlan chaos = sim::fault::FaultPlan::chaos(1000 + seed);
  std::ostringstream os;
  for (const sim::PlatformSpec& spec : {sim::rpi4(), sim::kunpeng916()}) {
    if (spec.total_cores() < prog.threads.size()) continue;
    for (std::uint32_t skew : {0u, 3u}) {
      render_run(os, prog, spec, "clean", nullptr, skew);
      render_run(os, prog, spec, "chaos", &chaos, skew);
    }
  }
  return hex64(fnv1a(os.str()));
}

std::string golden_path() {
  return std::string(ARMBAR_TEST_SOURCE_DIR) + "/golden/bitident.golden";
}

TEST(BitIdentity, FuzzSampleTimingDigestsUnchanged) {
  std::vector<std::string> lines;
  lines.reserve(kNumSeeds);
  for (std::uint64_t s = kFirstSeed; s < kFirstSeed + kNumSeeds; ++s)
    lines.push_back("seed " + std::to_string(s) + " " + digest_seed(s));

  if (std::getenv("ARMBAR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << "armbar.golden.bitident/v1\n";
    for (const std::string& l : lines) out << l << '\n';
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path()
                         << " — run with ARMBAR_REGEN_GOLDEN=1 once";
  std::string header;
  std::getline(in, header);
  ASSERT_EQ(header, "armbar.golden.bitident/v1");
  std::size_t mismatches = 0;
  for (const std::string& expect : lines) {
    std::string got;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, got)))
        << "golden file truncated before '" << expect << "'";
    if (got != expect) {
      ++mismatches;
      ADD_FAILURE() << "timing digest drift: golden '" << got << "' vs '"
                    << expect << "'";
      if (mismatches >= 5) break;  // five examples localize a drift; stop
    }
  }
}

}  // namespace
}  // namespace armbar::fuzz

// cli_main: armbar-bench's one entry point, driven end to end from a
// temporary directory with a small registered experiment. A filter that matches one
// experiment reports it under its own name, with unprefixed keys, into
// <name>.report.json and <name>.trace.json.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "sim/machine.hpp"
#include "trace/json_report.hpp"

namespace armbar::runner {
namespace {

ARMBAR_EXPERIMENT(cli_smoke, "Test", "one traced store loop") {
  Fingerprint k = ExperimentContext::key();
  k.mix("cli_test/store-loop");
  const double cycles =
      ctx.cached_instrumented(k, "store loop", [](trace::Tracer* tracer,
                                                   trace::MetricsRegistry* reg) {
           sim::Machine m(sim::rpi4(), 1u << 20);
           sim::Asm a;
           a.movi(sim::X0, 0x1000).movi(sim::X2, 0);
           a.label("loop");
           a.str(sim::X2, sim::X0, 0);
           a.dmb_st();
           a.addi(sim::X0, sim::X0, 64);
           a.addi(sim::X2, sim::X2, 1);
           a.cmpi(sim::X2, 16);
           a.blt("loop");
           a.halt();
           m.load_program(0, a.take("t"));
           sim::RunConfig cfg;
           cfg.tracer = tracer;
           cfg.metrics = reg;
           return trace::Json(static_cast<double>(m.run(cfg).cycles));
         }).number();
  ctx.check(cycles > 0, "the store loop ran");
}

/// Runs cli_main on `words` (argv[0] implied) inside a fresh directory.
class CliMain : public ::testing::Test {
 protected:
  void SetUp() override {
    old_cwd_ = std::filesystem::current_path();
    dir_ = std::filesystem::temp_directory_path() /
           ("armbar_cli_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::filesystem::current_path(dir_);
  }
  void TearDown() override {
    std::filesystem::current_path(old_cwd_);
    std::filesystem::remove_all(dir_);
  }

  static int run(std::vector<std::string> words) {
    words.insert(words.begin(), "armbar-bench");
    std::vector<char*> argv;
    for (std::string& w : words) argv.push_back(w.data());
    return cli_main(static_cast<int>(argv.size()), argv.data());
  }

  static trace::Json load(const std::string& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    trace::Json doc = trace::Json::parse(text.str(), &err);
    EXPECT_TRUE(err.empty()) << path << ": " << err;
    return doc;
  }

 private:
  std::filesystem::path old_cwd_;
  std::filesystem::path dir_;
};

TEST_F(CliMain, SingleMatchWritesReportAndTraceUnderItsName) {
  ASSERT_EQ(run({"--filter", "cli_smoke", "--json", "--trace", "--no-cache"}),
            0);

  const trace::Json report = load("cli_smoke.report.json");
  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(report, &err)) << err;
  ASSERT_NE(report.find("bench"), nullptr);
  EXPECT_EQ(report.find("bench")->str(), "cli_smoke");
  const trace::Json* params = report.find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_NE(params->find("points_digest"), nullptr);
  EXPECT_EQ(params->find("cli_smoke/points_digest"), nullptr);

  const trace::Json trace_doc = load("cli_smoke.trace.json");
  const trace::Json* events = trace_doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->size(), 0u);
}

TEST_F(CliMain, MalformedIntegerExitsTwo) {
  EXPECT_EQ(run({"--filter", "cli_smoke", "--jobs=abc"}), 2);
  EXPECT_FALSE(std::filesystem::exists("cli_smoke.report.json"));
}

}  // namespace
}  // namespace armbar::runner

// report_check — validate bench JSON reports against armbar.bench.report/v2,
// the only schema it accepts (a v1 document is rejected as unknown).
//
//   $ report_check report.json [more.json ...]
//
// Exit 0 when every file parses and conforms (and its checks passed),
// nonzero otherwise. Used by scripts/ci.sh to gate the --json pipeline.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/json.hpp"
#include "trace/json_report.hpp"

namespace {

bool check_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  std::string err;
  const armbar::trace::Json doc = armbar::trace::Json::parse(buf.str(), &err);
  if (!err.empty()) {
    std::fprintf(stderr, "%s: JSON parse error: %s\n", path, err.c_str());
    return false;
  }
  if (!armbar::trace::validate_bench_report(doc, &err)) {
    std::fprintf(stderr, "%s: schema violation: %s\n", path, err.c_str());
    return false;
  }
  const bool ok = doc.find("ok")->boolean();
  const std::size_t quarantined = doc.find("quarantine")->size();
  std::printf("%s: valid %s report — bench '%s', %zu checks, %zu metrics, "
              "%zu histograms, %zu quarantined%s\n",
              path, doc.find("schema")->str().c_str(),
              doc.find("bench")->str().c_str(), doc.find("checks")->size(),
              doc.find("metrics")->size(), doc.find("histograms")->size(),
              quarantined, ok ? "" : " [bench checks FAILED]");
  if (const armbar::trace::Json* hp = doc.find("host_prof")) {
    // Validation already ran inside validate_bench_report; this is the
    // human summary of the (report-only) host profile.
    const armbar::trace::Json* ips = hp->find("sim_instructions_per_sec");
    std::printf("%s:   host_prof: %zu phases, wall %.1f ms, %u threads%s\n",
                path, hp->find("phases")->size(),
                hp->find("wall_ns")->number() / 1e6,
                static_cast<unsigned>(hp->find("threads")->number()),
                ips != nullptr ? "" : " (no sim throughput)");
    if (ips != nullptr)
      std::printf("%s:   host_prof: %.2f M sim instr/s\n", path,
                  ips->number() / 1e6);
  }
  if (const armbar::trace::Json* rep = doc.find("opt_report")) {
    // Arithmetic consistency (attempted >= accepted + restored, totals ==
    // per-program sums) already validated; print the human summary.
    const armbar::trace::Json* t = rep->find("totals");
    std::printf("%s:   opt_report: %zu programs, %.0f attempted = %.0f "
                "accepted + %.0f restored (+%.0f undecided), %.0f barriers "
                "eliminated\n",
                path, rep->find("programs")->size(),
                t->find("rewrites_attempted")->number(),
                t->find("rewrites_accepted")->number(),
                t->find("rewrites_restored")->number(),
                t->find("rewrites_attempted")->number() -
                    t->find("rewrites_accepted")->number() -
                    t->find("rewrites_restored")->number(),
                t->find("barriers_eliminated")->number());
  }
  for (const armbar::trace::Json& q : doc.find("quarantine")->items()) {
    std::fprintf(stderr, "%s: quarantined '%s': %s (%s)\n", path,
                 q.find("name")->str().c_str(),
                 q.find("kind") ? q.find("kind")->str().c_str() : "?",
                 q.find("reason") ? q.find("reason")->str().c_str() : "");
    if (const armbar::trace::Json* inv = q.find("invariant"))
      std::fprintf(stderr, "%s:   invariant: %s, witness: %s\n", path,
                   inv->str().c_str(),
                   q.find("witness") ? q.find("witness")->str().c_str() : "?");
    if (const armbar::trace::Json* bundle = q.find("repro_bundle"))
      std::fprintf(stderr, "%s:   replay: armbar-repro %s\n", path,
                   bundle->str().c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <report.json> [more.json ...]\n", argv[0]);
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) ok = check_file(argv[i]) && ok;
  return ok ? 0 : 1;
}

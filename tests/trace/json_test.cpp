// The hand-rolled JSON DOM (parse/build/dump) and the bench-report schema
// validator.
#include <gtest/gtest.h>

#include "trace/json.hpp"
#include "trace/json_report.hpp"

namespace armbar::trace {
namespace {

TEST(Json, ParseScalars) {
  std::string err;
  EXPECT_TRUE(Json::parse("null", &err).is_null()) << err;
  EXPECT_EQ(Json::parse("true", &err).boolean(), true);
  EXPECT_EQ(Json::parse("false", &err).boolean(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42", &err).number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e2", &err).number(), -150.0);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"", &err).str(), "hi\nthere");
  EXPECT_EQ(Json::parse("\"\\u0041\"", &err).str(), "A");
}

TEST(Json, ParseNested) {
  std::string err;
  const Json doc = Json::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": true})", &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(doc.is_object());
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[2].find("b")->str(), "c");
  EXPECT_TRUE(doc.find("d")->find("e")->is_null());
  EXPECT_EQ(doc.find("x"), nullptr);
}

TEST(Json, ParseErrors) {
  std::string err;
  Json::parse("{", &err);
  EXPECT_FALSE(err.empty());
  Json::parse("[1, 2", &err);
  EXPECT_FALSE(err.empty());
  Json::parse("12 trailing", &err);
  EXPECT_FALSE(err.empty());
  Json::parse("\"unterminated", &err);
  EXPECT_FALSE(err.empty());
  // A repeated member is an error naming the key, at any depth.
  EXPECT_TRUE(Json::parse(R"({"a": {"k": 1, "k": 2}})", &err).is_null());
  EXPECT_NE(err.find("duplicate key \"k\""), std::string::npos) << err;
  // A good parse clears a previously set error string.
  Json::parse("7", &err);
  EXPECT_TRUE(err.empty());
}

TEST(Json, DumpParseRoundTrip) {
  Json doc = Json::object();
  doc.set("name", "bench \"x\"\n");
  doc.set("n", 123456789.0);
  doc.set("frac", 0.125);
  doc.set("flag", true);
  Json arr = Json::array();
  arr.push(Json(1.0)).push(Json()).push(Json(std::string("s")));
  doc.set("items", std::move(arr));

  for (int indent : {-1, 0, 1, 2}) {
    std::string err;
    const Json back = Json::parse(doc.dump(indent), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.find("name")->str(), "bench \"x\"\n");
    EXPECT_DOUBLE_EQ(back.find("n")->number(), 123456789.0);
    EXPECT_DOUBLE_EQ(back.find("frac")->number(), 0.125);
    EXPECT_EQ(back.find("items")->items().size(), 3u);
  }
}

TEST(Json, IntegralNumbersPrintWithoutFraction) {
  EXPECT_EQ(Json(250000.0).dump(), "250000");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
}

TEST(Json, SetOverwritesExistingKey) {
  Json doc = Json::object();
  doc.set("k", 1.0);
  doc.set("k", 2.0);
  EXPECT_EQ(doc.members().size(), 1u);
  EXPECT_DOUBLE_EQ(doc.find("k")->number(), 2.0);
}

// ---- report schema ----

ReportBuilder sample_report() {
  ReportBuilder rb("fig_test", "a test bench");
  rb.add_check("claim holds", true);
  rb.add_param("platform", "kunpeng916");
  rb.add_metric("throughput", 1.5e6);
  HistogramSummary s;
  s.count = 10;
  s.sum = 100;
  s.min = 1;
  s.max = 50;
  s.mean = 10;
  s.p50 = 8;
  s.p95 = 40;
  s.p99 = 49;
  rb.add_histogram("lat", s);
  return rb;
}

TEST(Report, BuilderProducesValidDocument) {
  const Json doc = sample_report().build();
  std::string err;
  EXPECT_TRUE(validate_bench_report(doc, &err)) << err;

  // And it survives a serialize/parse cycle.
  const Json back = Json::parse(doc.dump(1), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_TRUE(validate_bench_report(back, &err)) << err;
}

TEST(Report, FailedCheckFlipsOk) {
  ReportBuilder rb("x", "y");
  rb.add_check("broken", false);
  const Json doc = rb.build();
  EXPECT_FALSE(doc.find("ok")->boolean());
  std::string err;
  EXPECT_TRUE(validate_bench_report(doc, &err)) << err;
}

TEST(Report, ValidatorRejectsBadDocuments) {
  std::string err;
  EXPECT_FALSE(validate_bench_report(Json(1.0), &err));

  Json doc = sample_report().build();
  doc.set("schema", "wrong/v9");
  EXPECT_FALSE(validate_bench_report(doc, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);

  doc = sample_report().build();
  doc.set("bench", "");
  EXPECT_FALSE(validate_bench_report(doc, &err));

  doc = sample_report().build();
  doc.set("checks", Json(1.0));
  EXPECT_FALSE(validate_bench_report(doc, &err));

  // ok=true while a check failed is inconsistent.
  doc = sample_report().build();
  Json bad = Json::object();
  bad.set("claim", "nope");
  bad.set("pass", false);
  doc.find_mut("checks")->push(std::move(bad));
  EXPECT_FALSE(validate_bench_report(doc, &err));

  // Histogram missing a field.
  doc = sample_report().build();
  doc.find_mut("histograms")->find_mut("lat")->set("p99", Json());
  EXPECT_FALSE(validate_bench_report(doc, &err));

  // min > max.
  doc = sample_report().build();
  doc.find_mut("histograms")->find_mut("lat")->set("min", 99.0);
  EXPECT_FALSE(validate_bench_report(doc, &err));
}

TEST(Report, QuarantineCarriesReproBundle) {
  ReportBuilder rb("fuzz", "differential fuzz");
  rb.add_quarantine("fuzz_differential", "failed", "check_failed",
                    "model/sim mismatch", Json(),
                    "out/fuzz/seed42.repro.json");
  const Json doc = rb.build();
  EXPECT_FALSE(doc.find("ok")->boolean());
  std::string err;
  EXPECT_TRUE(validate_bench_report(doc, &err)) << err;
  const Json& q = doc.find("quarantine")->items().front();
  ASSERT_NE(q.find("repro_bundle"), nullptr);
  EXPECT_EQ(q.find("repro_bundle")->str(), "out/fuzz/seed42.repro.json");

  // An empty path is omitted entirely rather than emitted as "".
  ReportBuilder rb2("fuzz", "differential fuzz");
  rb2.add_quarantine("fuzz_differential", "failed", "timeout", "slow");
  const Json doc2 = rb2.build();
  EXPECT_EQ(doc2.find("quarantine")->items().front().find("repro_bundle"),
            nullptr);
  EXPECT_TRUE(validate_bench_report(doc2, &err)) << err;

  // The validator rejects a present-but-empty or non-string bundle path.
  for (Json bad_path : {Json(""), Json(3.0)}) {
    Json entry = Json::object();
    entry.set("name", "fuzz_differential");
    entry.set("status", "failed");
    entry.set("repro_bundle", std::move(bad_path));
    Json doc3 = doc;
    doc3.set("quarantine", Json::array().push(std::move(entry)));
    EXPECT_FALSE(validate_bench_report(doc3, &err));
    EXPECT_NE(err.find("repro_bundle"), std::string::npos);
  }
}

}  // namespace
}  // namespace armbar::trace

// Histogram bucketing/percentiles, the machine-wide metrics registry and
// its JSON round trip.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "trace/json.hpp"
#include "trace/metrics.hpp"

namespace armbar::trace {
namespace {

TEST(Histogram, BucketOf) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~0ULL), 64u);
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i)
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(i)), i);
}

TEST(Histogram, BasicStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  for (std::uint64_t v : {5ULL, 10ULL, 15ULL}) h.add(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 30u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, PercentilesExactForSingleValuedBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.add(0);
  for (int i = 0; i < 10; ++i) h.add(1);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(89), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 1.0);
}

TEST(Histogram, PercentileMonotoneAndBounded) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  double prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double x = h.percentile(p);
    EXPECT_GE(x, prev) << "p" << p;
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 1024.0);  // within the top bucket's range
    prev = x;
  }
}

TEST(Histogram, MergeMatchesCombinedAdds) {
  Histogram a, b, both;
  for (std::uint64_t v = 1; v < 100; v += 2) { a.add(v); both.add(v); }
  for (std::uint64_t v = 100; v < 300; v += 3) { b.add(v); both.add(v); }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.buckets(), both.buckets());
}

TEST(Histogram, MergeIntoEmpty) {
  Histogram a, b;
  b.add(7);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7u);
  a.merge(Histogram{});  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), 1u);
}

TEST(Summarize, FlattensHistogram) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 64; ++v) h.add(v);
  const HistogramSummary s = summarize(h);
  EXPECT_EQ(s.count, 64u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 64u);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

/// A histogram holding `samples`.
Histogram histogram_of(std::initializer_list<std::uint64_t> samples) {
  Histogram h;
  for (const std::uint64_t v : samples) h.add(v);
  return h;
}

TEST(MetricsRegistry, CountersPerCoreAndMachineWide) {
  // What several cores count lands in one machine-wide counter.
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("never"), 0u);

  reg.inc("instrs", 5);  // core 0's CoreStats
  reg.inc("instrs", 7);  // core 3's
  reg.inc("instrs");
  reg.inc("squashes", 0);  // a zero delta records nothing
  EXPECT_EQ(reg.counter("instrs"), 13u);
  EXPECT_EQ(reg.counter_names(), (std::vector<std::string>{"instrs"}));
}

TEST(MetricsRegistry, HistogramsPerCoreAndMerged) {
  // Samples from several cores merge into one machine-wide histogram,
  // exactly as if one histogram had taken them all.
  MetricsRegistry reg;
  reg.merge("lat", histogram_of({10}));
  reg.merge("lat", histogram_of({1000}));
  reg.merge("lat", Histogram{});  // an empty one records nothing
  reg.merge("empty", Histogram{});

  const Histogram all = reg.histogram("lat");
  EXPECT_EQ(all.count(), 2u);
  EXPECT_EQ(all.min(), 10u);
  EXPECT_EQ(all.max(), 1000u);
  EXPECT_TRUE(all == histogram_of({10, 1000}));
  EXPECT_EQ(reg.histogram("other").count(), 0u);
  EXPECT_EQ(reg.histogram_names(), (std::vector<std::string>{"lat"}));
}

TEST(MetricsRegistry, NamesAreSortedAndClearable) {
  MetricsRegistry reg;
  reg.inc("b");
  reg.inc("a");
  reg.merge("z", histogram_of({1}));
  reg.merge("y", histogram_of({1}));
  EXPECT_EQ(reg.counter_names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(reg.histogram_names(), (std::vector<std::string>{"y", "z"}));
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

/// to_json, dumped and parsed back (what a cache entry goes through), then
/// from_json.
MetricsRegistry round_trip(const MetricsRegistry& reg) {
  std::string err;
  const Json parsed = Json::parse(reg.to_json().dump(1), &err);
  EXPECT_TRUE(err.empty()) << err;
  MetricsRegistry out;
  EXPECT_TRUE(MetricsRegistry::from_json(parsed, &out));
  return out;
}

TEST(MetricsRegistryJson, EmptyRegistryRoundTrips) {
  const MetricsRegistry reg;
  const MetricsRegistry back = round_trip(reg);
  EXPECT_TRUE(back.empty());
  EXPECT_TRUE(back == reg);
}

TEST(MetricsRegistryJson, OnlyPopulatedCoresAndBucketsAreWritten) {
  // A run on core 32 of the 64-core preset writes its numbers straight
  // under each name: no core level, and only the non-zero buckets.
  MetricsRegistry reg;
  reg.inc(metric::kInstrs, 1234);
  reg.merge(metric::kCohTransfer, histogram_of({180, 190}));

  const Json j = reg.to_json();
  const Json* instrs = j.find("counters")->find(metric::kInstrs);
  ASSERT_NE(instrs, nullptr);
  ASSERT_TRUE(instrs->is_number());
  EXPECT_EQ(instrs->number(), 1234);
  const Json* coh = j.find("histograms")->find(metric::kCohTransfer);
  ASSERT_NE(coh, nullptr);
  EXPECT_EQ(coh->find("32"), nullptr);
  ASSERT_NE(coh->find("buckets"), nullptr);
  EXPECT_EQ(coh->find("buckets")->size(), 1u);  // both in [128, 256)

  const MetricsRegistry back = round_trip(reg);
  EXPECT_TRUE(back == reg);
  EXPECT_EQ(back.counter(metric::kInstrs), 1234u);
  EXPECT_EQ(back.histogram(metric::kCohTransfer).sum(), 370u);
}

TEST(MetricsRegistryJson, EveryBucketRoundTrips) {
  Histogram h = histogram_of({0});
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i) {
    h.add(Histogram::bucket_lo(i));
    h.add(Histogram::bucket_lo(i) * 2 - 1);  // top of bucket i
  }
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
    EXPECT_GT(h.buckets()[i], 0u) << "bucket " << i;
  EXPECT_EQ(h.max(), ~0ULL);
  MetricsRegistry reg;
  reg.merge("lat", h);

  const MetricsRegistry back = round_trip(reg);
  EXPECT_TRUE(back == reg);
  EXPECT_EQ(back.histogram("lat").buckets(), h.buckets());
}

TEST(MetricsRegistryJson, IntegersAbove2To53StayExact) {
  // 2^53 + 1 is the first integer a double cannot hold.
  const std::uint64_t big = (1ULL << 53) + 1;
  MetricsRegistry reg;
  reg.merge("lat", histogram_of({big, big + 2}));
  reg.inc("ctr", big);

  const MetricsRegistry back = round_trip(reg);
  EXPECT_TRUE(back == reg);
  EXPECT_EQ(back.histogram("lat").sum(), 2 * big + 2);
  EXPECT_EQ(back.histogram("lat").min(), big);
  EXPECT_EQ(back.histogram("lat").max(), big + 2);
  EXPECT_EQ(back.counter("ctr"), big);
}

TEST(MetricsRegistryJson, MalformedDocumentsAreRejected) {
  MetricsRegistry out;
  out.inc("kept");
  const MetricsRegistry before = out;
  const auto rejects = [&](const char* text) {
    std::string err;
    const Json doc = Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << text;
    EXPECT_FALSE(MetricsRegistry::from_json(doc, &out)) << text;
    EXPECT_TRUE(out == before) << "a rejected document changed the registry";
  };
  rejects("null");
  rejects(R"({"counters": {}})");
  rejects(R"({"counters": {"c": 0}, "histograms": {}})");
  rejects(R"({"counters": {"c": -1}, "histograms": {}})");
  rejects(R"({"counters": {"c": 1.5}, "histograms": {}})");
  rejects(R"({"counters": {"c": "99999999999999999999"}, "histograms": {}})");
  // The per-core shape of entry schema v2.
  rejects(R"({"counters": {"c": {"0": 1}}, "histograms": {}})");
  rejects(R"({"counters": {}, "histograms": {"h":
      {"sum": 0, "min": 0, "max": 0, "buckets": {}}}})");
  rejects(R"({"counters": {}, "histograms": {"h":
      {"sum": 1, "min": 1, "max": 1, "buckets": {"65": 1}}}})");
  rejects(R"({"counters": {}, "histograms": {"h": {"0":
      {"sum": 1, "min": 1, "max": 1, "buckets": {"1": 1}}}}})");
  // A repeated counter fails the parse itself, naming the key, so no
  // document reaches from_json with one of its values dropped.
  std::string err;
  const Json dup =
      Json::parse(R"({"counters": {"c": 1, "c": 2}, "histograms": {}})", &err);
  EXPECT_NE(err.find("duplicate key \"c\""), std::string::npos) << err;
  EXPECT_FALSE(MetricsRegistry::from_json(dup, &out));
  EXPECT_TRUE(out == before) << "a rejected document changed the registry";
}

}  // namespace
}  // namespace armbar::trace

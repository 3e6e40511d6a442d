// ResultCache: content-addressed memoization with on-disk persistence.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/cache.hpp"
#include "runner/fingerprint.hpp"
#include "sim/platform.hpp"

namespace armbar::runner {
namespace {

// Fresh (empty) per-test directory: prior ctest invocations leave their
// entries in TempDir, and a stale entry would turn a miss test into a hit.
std::string temp_cache_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "armbar_cache_test_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

trace::Json value_of(double d) { return trace::Json(d); }

TEST(ResultCache, DisabledWhenDirEmpty) {
  ResultCache c("");
  EXPECT_FALSE(c.enabled());
  c.store("00", "desc", value_of(1));
  EXPECT_FALSE(c.lookup("00").has_value());
  EXPECT_EQ(c.stats().stores, 0u);
}

TEST(ResultCache, MissThenStoreThenHit) {
  ResultCache c(temp_cache_dir("hit"));
  const std::string key = "a3b1c2d3a3b1c2d3a3b1c2d3a3b1c2d3";
  EXPECT_FALSE(c.lookup(key).has_value());
  c.store(key, "the answer", value_of(42));
  auto v = c.lookup(key);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->number(), 42);
  const auto s = c.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(ResultCache, PersistsAcrossInstances) {
  const std::string dir = temp_cache_dir("persist");
  const std::string key = "00112233445566770011223344556677";
  {
    ResultCache c(dir);
    c.store(key, "persisted", value_of(7.5));
  }
  ResultCache fresh(dir);
  auto v = fresh.lookup(key);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->number(), 7.5);
}

TEST(ResultCache, CorruptEntryDegradesToMiss) {
  const std::string dir = temp_cache_dir("corrupt");
  const std::string key = "ffeeddccbbaa0099ffeeddccbbaa0099";
  {
    ResultCache c(dir);
    c.store(key, "will be clobbered", value_of(1));
  }
  {
    // Clobber the entry file with junk.
    ResultCache locate(dir);
    std::ofstream f(dir + "/" + key + ".json", std::ios::trunc);
    f << "{not json";
  }
  ResultCache fresh(dir);
  EXPECT_FALSE(fresh.lookup(key).has_value());
  const auto s = fresh.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 1u);  // corrupt entry counted as evicted
}

TEST(ResultCache, StaleEpochDegradesToMiss) {
  const std::string dir = temp_cache_dir("epoch");
  const std::string key = "12341234123412341234123412341234";
  {
    ResultCache c(dir);
    c.store(key, "old epoch", value_of(9));
  }
  {
    // Rewrite the entry claiming a pre-bump simulator epoch.
    std::ofstream f(dir + "/" + key + ".json", std::ios::trunc);
    f << "{\"schema\": \"" << kCacheEntrySchema
      << "\", \"epoch\": \"armbar-sim/0-stale\", \"key\": \"" << key
      << "\", \"desc\": \"stale\", \"value\": 9}\n";
  }
  ResultCache fresh(dir);
  EXPECT_FALSE(fresh.lookup(key).has_value());
  EXPECT_EQ(fresh.stats().evictions, 1u);  // stale epoch evicts too
}

TEST(ResultCache, PlatformSpecChangeChangesTheKey) {
  // The invalidation story end to end: a latency tweak produces a
  // different content address, so the old entry is simply never found.
  ResultCache c(temp_cache_dir("invalidate"));

  const sim::PlatformSpec base = sim::kunpeng916();
  Fingerprint k1;
  k1.mix("point").mix(base);
  c.store(k1.hex(), "base platform", value_of(100));

  sim::PlatformSpec tweaked = base;
  tweaked.lat.bus_sync += 50;
  Fingerprint k2;
  k2.mix("point").mix(tweaked);
  ASSERT_NE(k1.hex(), k2.hex());
  EXPECT_TRUE(c.lookup(k1.hex()).has_value());
  EXPECT_FALSE(c.lookup(k2.hex()).has_value());
}

TEST(ResultCache, StructuredValuesRoundTrip) {
  ResultCache c(temp_cache_dir("roundtrip"));
  trace::Json v = trace::Json::object();
  v.set("mps", 123.5);
  v.set("ok", true);
  const std::string key = "aaaabbbbccccddddaaaabbbbccccdddd";
  c.store(key, "structured", v);

  ResultCache fresh(c.dir());
  auto got = fresh.lookup(key);
  ASSERT_TRUE(got.has_value());
  ASSERT_NE(got->find("mps"), nullptr);
  EXPECT_DOUBLE_EQ(got->find("mps")->number(), 123.5);
  ASSERT_NE(got->find("ok"), nullptr);
  EXPECT_TRUE(got->find("ok")->boolean());
}

TEST(ResultCache, MetricsTravelWithTheValue) {
  trace::MetricsRegistry reg;
  reg.inc(trace::metric::kInstrs, 77);
  trace::Histogram txn;
  txn.add(40);
  reg.merge(trace::metric::kBarrierTxn, txn);
  const std::string key = "0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f";
  ResultCache c(temp_cache_dir("metrics"));
  c.store(key, "with metrics", value_of(3), &reg);

  const auto expect_hit = [&](ResultCache& cache) {
    trace::MetricsRegistry got;
    auto v = cache.lookup(key, &got);
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(v->number(), 3);
    EXPECT_TRUE(got == reg);
  };
  expect_hit(c);
  ResultCache fresh(c.dir());
  expect_hit(fresh);
}

TEST(ResultCache, EntryWithoutMetricsIsStaleForAMetricsLookup) {
  const std::string key = "1e1e1e1e1e1e1e1e1e1e1e1e1e1e1e1e";
  const std::string dir = temp_cache_dir("nometrics");
  {
    ResultCache c(dir);
    c.store(key, "value only", value_of(5));
  }
  ResultCache fresh(dir);
  EXPECT_TRUE(fresh.lookup(key).has_value());  // a value-only lookup hits
  trace::MetricsRegistry got;
  EXPECT_FALSE(fresh.lookup(key, &got).has_value());
  EXPECT_TRUE(got.empty());
  const auto s = fresh.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(ResultCache, ConcurrentLookupsAgreeAndCountEveryCall) {
  // Lookups read and parse entry files outside the lock. Four threads
  // racing over one populated directory (plus keys never stored) must see
  // exactly the stored values, and every call must count once.
  const std::string dir = temp_cache_dir("concurrent");
  constexpr int kStored = 64;
  constexpr int kAbsent = 16;
  constexpr int kThreads = 4;
  const auto key_of = [](int i) {
    Fingerprint k;
    k.mix("concurrent").mix(static_cast<std::uint64_t>(i));
    return k.hex();
  };
  {
    ResultCache writer(dir);
    for (int i = 0; i < kStored; ++i) {
      trace::MetricsRegistry reg;
      reg.inc(trace::metric::kInstrs, i + 1);
      writer.store(key_of(i), "point", value_of(i * 1.5), &reg);
    }
  }
  ResultCache c(dir);
  std::vector<std::vector<double>> seen(kThreads);
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kStored + kAbsent; ++i) {
        trace::MetricsRegistry got;
        const auto v = c.lookup(key_of(i), &got);
        if (i >= kStored) {
          if (v.has_value()) ++bad[t];
          continue;
        }
        if (!v.has_value() ||
            got.counter(trace::metric::kInstrs) != static_cast<std::uint64_t>(i + 1)) {
          ++bad[t];
          continue;
        }
        seen[t].push_back(v->number());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad[t], 0) << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  ASSERT_EQ(seen[0].size(), static_cast<std::size_t>(kStored));
  for (int i = 0; i < kStored; ++i) EXPECT_DOUBLE_EQ(seen[0][i], i * 1.5);
  const auto s = c.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads * (kStored + kAbsent)));
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads * kStored));
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(kThreads * kAbsent));
  EXPECT_EQ(s.evictions, 0u);
}

TEST(ResultCache, ConcurrentStoresOfOneKeyLeaveOneWholeEntry) {
  // Stores write outside the lock, each through its own temp file and a
  // rename. Four threads store one key at once, each an entry of its own
  // size, while a fifth looks it up: every hit must be one whole entry (one
  // thread's value with that thread's metrics; a torn one would read as
  // corrupt, an eviction), and no temp file may be left behind.
  const std::string dir = temp_cache_dir("concurrent_store");
  const std::string key = "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a";
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<bool> stored{false};
  int mismatched = 0;
  ResultCache::Stats read{};
  {
    ResultCache c(dir);
    std::thread reader([&] {
      ResultCache r(dir);
      while (!stored.load()) {
        trace::MetricsRegistry got;
        const auto v = r.lookup(key, &got);
        if (v.has_value() &&
            (!v->is_number() ||
             static_cast<double>(got.counter(trace::metric::kInstrs)) !=
                 v->number()))
          ++mismatched;
      }
      read = r.stats();
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
      writers.emplace_back([&, t] {
        trace::MetricsRegistry reg;
        reg.inc(trace::metric::kInstrs, static_cast<std::uint64_t>(t + 1));
        const std::string desc(8192 * (t + 1), static_cast<char>('a' + t));
        for (int r = 0; r < kRounds; ++r)
          c.store(key, desc, value_of(t + 1), &reg);
      });
    for (std::thread& th : writers) th.join();
    stored = true;
    reader.join();
    EXPECT_EQ(c.stats().stores, static_cast<std::uint64_t>(kThreads * kRounds));
  }
  EXPECT_EQ(read.evictions, 0u) << "a lookup saw a torn entry";
  EXPECT_EQ(mismatched, 0);
  int files = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(f.path().filename().string(), key + ".json");
    ++files;
  }
  EXPECT_EQ(files, 1);

  ResultCache fresh(dir);
  trace::MetricsRegistry got;
  const auto v = fresh.lookup(key, &got);
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_number());
  EXPECT_GE(v->number(), 1);
  EXPECT_LE(v->number(), kThreads);
  EXPECT_EQ(static_cast<double>(got.counter(trace::metric::kInstrs)),
            v->number());
  EXPECT_EQ(fresh.stats().hits, 1u);
}

}  // namespace
}  // namespace armbar::runner

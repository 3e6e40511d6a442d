#include "runner/cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "prof/prof.hpp"

namespace armbar::runner {

namespace {

/// Read and parse the entry at `path` once. Nullopt when it is absent
/// (*missing set), corrupt, of another schema or epoch, or lacks the
/// metrics a non-null `metrics` asks for; on a hit *metrics holds them.
std::optional<trace::Json> read_entry(const std::string& path,
                                      trace::MetricsRegistry* metrics,
                                      bool* missing) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    *missing = true;
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  trace::Json doc = trace::Json::parse(buf.str(), &err);
  const trace::Json* schema = doc.find("schema");
  const trace::Json* epoch = doc.find("epoch");
  trace::Json* value = doc.find_mut("value");
  if (!err.empty() || schema == nullptr || !schema->is_string() ||
      schema->str() != kCacheEntrySchema || epoch == nullptr ||
      !epoch->is_string() || epoch->str() != kCacheEpoch || value == nullptr)
    return std::nullopt;
  if (metrics != nullptr) {
    const trace::Json* m = doc.find("metrics");
    if (m == nullptr || !trace::MetricsRegistry::from_json(*m, metrics))
      return std::nullopt;
  }
  return std::move(*value);
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    // An unwritable directory degrades to a miss-only cache; store() will
    // simply fail to persist and the run still completes.
  }
}

std::string ResultCache::path_of(const std::string& key_hex) const {
  return dir_ + "/" + key_hex + ".json";
}

std::optional<trace::Json> ResultCache::lookup(const std::string& key_hex,
                                               trace::MetricsRegistry* metrics) {
  if (!enabled()) return std::nullopt;
  // A fully cached run spends its time here; without this phase its
  // --profile report would have no host_prof section at all. The hit,
  // miss, store and eviction counts are stats_, not profiler counters.
  ARMBAR_PROF_SCOPE(kCacheLookup);
  bool missing = false;
  // Read and parse outside the lock, so concurrent workers' lookups overlap
  // instead of queueing behind each other's file I/O.
  std::optional<trace::Json> value =
      read_entry(path_of(key_hex), metrics, &missing);

  std::lock_guard<std::mutex> lock(mu_);
  if (!value.has_value()) {
    // Absent, or a corrupt or stale entry (counted as an eviction); the
    // fresh result will overwrite it.
    ++stats_.misses;
    if (!missing) ++stats_.evictions;
    return std::nullopt;
  }
  ++stats_.hits;
  return value;
}

void ResultCache::store(const std::string& key_hex, const std::string& desc,
                        const trace::Json& value,
                        const trace::MetricsRegistry* metrics) {
  if (!enabled()) return;
  trace::Json doc = trace::Json::object();
  doc.set("schema", kCacheEntrySchema);
  doc.set("epoch", kCacheEpoch);
  doc.set("key", key_hex);
  doc.set("desc", desc);
  doc.set("value", value);
  if (metrics != nullptr) doc.set("metrics", metrics->to_json());
  const std::string text = doc.dump(1) + "\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stores;
  }
  // Written outside the lock: two workers (or two processes sharing the
  // directory) storing one key each write their own temp file, and the
  // last rename wins with a whole entry.
  static std::atomic<std::uint64_t> next_tmp{0};
  const std::string path = path_of(key_hex);
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "." +
                          std::to_string(next_tmp++);
  if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (ok) {
      std::error_code ec;
      std::filesystem::rename(tmp, path, ec);
      if (!ec) return;
    }
    std::remove(tmp.c_str());
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace armbar::runner

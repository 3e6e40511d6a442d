#include "runner/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "prof/prof.hpp"

namespace armbar::runner {

namespace {

/// Parse an entry's metrics text into *out; false when absent or malformed.
bool decode_metrics(const std::string& text, trace::MetricsRegistry* out) {
  if (text.empty()) return false;
  std::string err;
  const trace::Json j = trace::Json::parse(text, &err);
  return err.empty() && trace::MetricsRegistry::from_json(j, out);
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

std::optional<ResultCache::Entry> ResultCache::read_entry(
    const std::string& path, bool* missing) {
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
  Entry e;
  e.value = std::move(*value);
  if (const trace::Json* metrics = doc.find("metrics"))
    e.metrics = metrics->dump();
  return e;
}

std::optional<trace::Json> ResultCache::lookup(const std::string& key_hex,
                                               trace::MetricsRegistry* metrics) {
  if (!enabled()) return std::nullopt;
  // A fully cached run spends its time here; without this phase its
  // --profile report would have counters but no phase to explain them.
  ARMBAR_PROF_SCOPE(kCacheLookup);
  std::optional<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = mem_.find(key_hex); it != mem_.end()) entry = it->second;
  }
  const bool in_memory = entry.has_value();
  bool missing = false;
  // Read and parse outside the lock, so concurrent workers' lookups overlap
  // instead of queueing behind each other's file I/O.
  if (!in_memory) entry = read_entry(path_of(key_hex), &missing);
  const bool usable =
      entry.has_value() &&
      (metrics == nullptr || decode_metrics(entry->metrics, metrics));

  std::lock_guard<std::mutex> lock(mu_);
  if (!usable) {
    // Absent, or a corrupt or stale entry (counted as an eviction); the
    // fresh result will overwrite it.
    ++stats_.misses;
    ARMBAR_PROF_COUNT(kCacheMisses, 1);
    if (!missing) {
      ++stats_.evictions;
      ARMBAR_PROF_COUNT(kCacheEvictions, 1);
    }
    return std::nullopt;
  }
  // Another worker may have read the same entry meanwhile; keep the first.
  if (!in_memory) mem_.try_emplace(key_hex, *entry);
  ++stats_.hits;
  ARMBAR_PROF_COUNT(kCacheHits, 1);
  return std::move(entry->value);
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
  Entry e{value, ""};
  if (metrics != nullptr) {
    trace::Json m = metrics->to_json();
    e.metrics = m.dump();
    doc.set("metrics", std::move(m));
  }
  const std::string text = doc.dump(1) + "\n";

  std::lock_guard<std::mutex> lock(mu_);
  mem_[key_hex] = std::move(e);
  ++stats_.stores;
  ARMBAR_PROF_COUNT(kCacheStores, 1);
  const std::string path = path_of(key_hex);
  const std::string tmp = path + ".tmp";
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

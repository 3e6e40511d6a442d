#include "trace/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <string>
#include <system_error>

namespace armbar::trace {

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= rank) {
      const double lo = static_cast<double>(std::max(bucket_lo(i), min_));
      const std::uint64_t hi_bound = i >= 64 ? max_ : (bucket_lo(i + 1) - 1);
      const double hi = static_cast<double>(std::min(hi_bound, max_));
      if (buckets_[i] == 1 || hi <= lo) return std::max(lo, hi);
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets_[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

HistogramSummary summarize(const Histogram& h) {
  HistogramSummary s;
  s.count = h.count();
  s.sum = h.sum();
  s.min = h.min();
  s.max = h.max();
  s.mean = h.mean();
  s.p50 = h.percentile(50.0);
  s.p95 = h.percentile(95.0);
  s.p99 = h.percentile(99.0);
  return s;
}

namespace {

/// Largest integer the double-valued Json DOM holds exactly is 2^53; larger
/// ones are written as decimal strings.
constexpr std::uint64_t kExactDouble = 1ULL << 53;

Json u64_json(std::uint64_t v) {
  if (v < kExactDouble) return Json(static_cast<double>(v));
  return Json(std::to_string(v));
}

/// A whole string of decimal digits that fits in 64 bits.
bool parse_u64(std::string_view s, std::uint64_t* out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

bool u64_of(const Json& j, std::uint64_t* out) {
  if (j.is_string()) return parse_u64(j.str(), out);
  if (!j.is_number()) return false;
  const double d = j.number();
  if (!(d >= 0) || d >= static_cast<double>(kExactDouble) ||
      d != static_cast<double>(static_cast<std::uint64_t>(d)))
    return false;
  *out = static_cast<std::uint64_t>(d);
  return true;
}

/// Object key holding a canonical decimal bucket number.
bool bucket_index_of(const std::string& key, std::uint64_t* out) {
  return parse_u64(key, out) && *out < Histogram::kBuckets &&
         std::to_string(*out) == key;
}

/// The entry of `name`, created empty on first use.
template <typename T>
T& entry(std::map<std::string, T, std::less<>>& m, std::string_view name) {
  auto it = m.find(name);
  if (it == m.end()) it = m.emplace(std::string(name), T{}).first;
  return it->second;
}

}  // namespace

Json Histogram::to_json() const {
  Json j = Json::object();
  j.set("sum", u64_json(sum_));
  j.set("min", u64_json(min()));
  j.set("max", u64_json(max_));
  Json buckets = Json::object();
  for (std::size_t i = 0; i < kBuckets; ++i)
    if (buckets_[i] != 0) buckets.set(std::to_string(i), u64_json(buckets_[i]));
  j.set("buckets", std::move(buckets));
  return j;
}

bool Histogram::from_json(const Json& j, Histogram* out) {
  const Json* sum = j.find("sum");
  const Json* min = j.find("min");
  const Json* max = j.find("max");
  const Json* buckets = j.find("buckets");
  Histogram h;
  if (sum == nullptr || min == nullptr || max == nullptr || buckets == nullptr ||
      !buckets->is_object() || !u64_of(*sum, &h.sum_) ||
      !u64_of(*min, &h.min_) || !u64_of(*max, &h.max_))
    return false;
  for (const auto& [key, n] : buckets->members()) {
    std::uint64_t i = 0;
    std::uint64_t count = 0;
    if (!bucket_index_of(key, &i) || !u64_of(n, &count) || count == 0 ||
        h.buckets_[i] != 0)
      return false;
    h.buckets_[i] = count;
    h.count_ += count;
  }
  if (h.count_ == 0 || h.min_ > h.max_) return false;
  *out = h;
  return true;
}

void MetricsRegistry::inc(std::string_view name, std::uint64_t delta) {
  if (delta != 0) entry(counters_, name) += delta;
}

void MetricsRegistry::merge(std::string_view name, const Histogram& h) {
  if (h.count() != 0) entry(histograms_, name).merge(h);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Histogram MetricsRegistry::histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [k, v] : counters_) out.push_back(k);
  return out;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::vector<std::string> out;
  out.reserve(histograms_.size());
  for (const auto& [k, v] : histograms_) out.push_back(k);
  return out;
}

void MetricsRegistry::clear() {
  counters_.clear();
  histograms_.clear();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

Json MetricsRegistry::to_json() const {
  Json counters = Json::object();
  for (const auto& [name, v] : counters_) counters.set(name, u64_json(v));
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) histograms.set(name, h.to_json());
  Json j = Json::object();
  j.set("counters", std::move(counters));
  j.set("histograms", std::move(histograms));
  return j;
}

bool MetricsRegistry::from_json(const Json& j, MetricsRegistry* out) {
  const Json* counters = j.find("counters");
  const Json* histograms = j.find("histograms");
  if (counters == nullptr || !counters->is_object() || histograms == nullptr ||
      !histograms->is_object())
    return false;
  MetricsRegistry reg;
  for (const auto& [name, n] : counters->members()) {
    std::uint64_t v = 0;
    if (!u64_of(n, &v) || v == 0) return false;
    reg.counters_.emplace(name, v);
  }
  for (const auto& [name, hj] : histograms->members()) {
    Histogram h;
    if (!Histogram::from_json(hj, &h)) return false;
    reg.histograms_.emplace(name, h);
  }
  *out = std::move(reg);
  return true;
}

}  // namespace armbar::trace

// Metrics registry: named counters and log-scale latency histograms,
// machine-wide. A run records one flat set; a sweep merges its runs' sets.
//
// The registry is the quantitative side of the tracing subsystem: where the
// ring-buffer tracer answers "what happened around cycle X", the registry
// answers "what is the p99 barrier completion latency over the whole run".
// Histograms are log2-bucketed (64 buckets cover the full Cycle range) so a
// histogram is a fixed 600-byte object no matter how many samples land in
// it. Every number is machine-wide, as the paper prices a barrier: no core
// id reaches the registry.
//
// The simulator fills a registry through sim::RunConfig::metrics: the
// latency histograms are fed at the hook sites, the counters are folded in
// from CoreStats when the run ends. The registry round-trips through a
// sparse JSON form so the runner can cache it next to a point's value.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/json.hpp"

namespace armbar::trace {

/// Standard metric names (cycle-valued histograms unless noted). Exposed so
/// the simulator, benches, tests and exporters agree on spelling.
namespace metric {
inline constexpr const char* kBarrierComplete = "barrier.complete_cycles";
inline constexpr const char* kBarrierTxn = "barrier.txn_cycles";
inline constexpr const char* kSbResidency = "sb.residency_cycles";
inline constexpr const char* kCohTransfer = "coh.transfer_cycles";
inline constexpr const char* kRemoteInv = "coh.remote_inv_cycles";
inline constexpr const char* kInstrs = "count.instructions";    ///< counter
inline constexpr const char* kBarriers = "count.barriers";      ///< counter
inline constexpr const char* kSquashes = "count.squashes";      ///< counter
inline constexpr const char* kStallPrefix = "stall_cycles.";    ///< counter family
}  // namespace metric

/// Log2-bucketed histogram of non-negative integer samples (cycle counts).
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void merge(const Histogram& o) {
    if (o.count_ == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    if (count_ == 0 || o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
    count_ += o.count_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }

  /// Approximate percentile (p in [0,100]): finds the bucket holding the
  /// rank and interpolates linearly inside it. Exact for single-valued
  /// buckets (0 and 1), within 2x for the rest — the right trade for a
  /// fixed-size accumulator on a simulator hot path.
  double percentile(double p) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  bool operator==(const Histogram&) const = default;

  /// Exact JSON form: {"sum", "min", "max", "buckets": {"<i>": n}} with
  /// only non-zero buckets written; the count is their sum.
  Json to_json() const;
  /// Inverse of to_json(). False on a malformed or empty histogram.
  static bool from_json(const Json& j, Histogram* out);

  static std::size_t bucket_of(std::uint64_t v) {
    return v == 0 ? 0 : static_cast<std::size_t>(64 - __builtin_clzll(v));
  }
  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucket_lo(std::size_t i) {
    return i == 0 ? 0 : (1ULL << (i - 1));
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Flat summary of a histogram, the shape exported into JSON reports.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

HistogramSummary summarize(const Histogram& h);

/// Named counters + histograms, machine-wide. Only names that counted or
/// sampled something hold an entry.
class MetricsRegistry {
 public:
  /// Add `delta` to a counter; a zero delta records nothing, so a counter
  /// exists exactly when something was counted.
  void inc(std::string_view name, std::uint64_t delta = 1);
  /// Fold a whole histogram in; an empty one records nothing.
  void merge(std::string_view name, const Histogram& h);

  /// Counter value (0 when the name was never incremented).
  std::uint64_t counter(std::string_view name) const;
  /// Histogram; empty when never sampled.
  Histogram histogram(std::string_view name) const;

  std::vector<std::string> counter_names() const;
  std::vector<std::string> histogram_names() const;

  bool empty() const { return counters_.empty() && histograms_.empty(); }
  void clear();

  /// Fold another registry into this one: counters add and histograms
  /// merge. Lets parallel sweeps record into per-point registries and
  /// combine them afterwards without sharing mutable state during the run.
  void merge(const MetricsRegistry& other);

  bool operator==(const MetricsRegistry&) const = default;

  /// Lossless, sparse JSON form, the shape result-cache entries store:
  ///   {"counters":   {"<name>": n, ...},
  ///    "histograms": {"<name>": <Histogram::to_json>, ...}}
  /// Integers above 2^53 travel as decimal strings, which the
  /// double-valued DOM keeps exact.
  Json to_json() const;
  /// Inverse of to_json(): on success *out holds exactly the encoded
  /// registry. False (and *out untouched) on a malformed document.
  static bool from_json(const Json& j, MetricsRegistry* out);

 private:
  // std::map: stable iteration order (deterministic exports), heterogeneous
  // string_view lookup via std::less<>.
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace armbar::trace

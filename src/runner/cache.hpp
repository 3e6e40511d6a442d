// Content-addressed result cache for simulator runs (ISSUE 2).
//
// Each independent sweep point is deterministic: (platform fingerprint,
// program hash, run config) fully determines the result. The cache maps
// that 128-bit key to the result's JSON value, one file per entry under
// `.armbar-cache/` (schema armbar.cache.entry/v3):
//
//   { "schema":  "armbar.cache.entry/v3",
//     "epoch":   "<kCacheEpoch>",
//     "key":     "<32 hex chars>",
//     "desc":    "pair platform=kunpeng916 prog=store-store/DMB full ...",
//     "value":   <arbitrary JSON>,
//     "metrics": <MetricsRegistry::to_json> }   // instrumentable points only
//
// An instrumentable point (one that runs a Machine) stores the counters and
// latency histograms its run recorded next to its value, so a report that
// wants them reads them back instead of re-simulating. They depend on the
// same inputs as the value and stay out of the points digest.
//
// Keys content-address the *inputs*, not the simulator build, so
// kCacheEpoch is mixed into every key and must be bumped whenever the
// timing model itself changes behaviour (the Latencies static_assert in
// fingerprint.cpp points here when the latency table grows).
//
// Thread-safe: workers of the experiment pool hit it concurrently. The
// directory is the only store: a lookup reads and parses its entry file
// once, a store writes it once through a temp file private to the writer
// and a rename, so a crashed run never leaves a torn entry behind. Only
// the counters take the lock.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "trace/json.hpp"
#include "trace/metrics.hpp"

namespace armbar::runner {

/// v2 added the optional "metrics" member and v3 made it one machine-wide
/// record per run (v2 kept it per core). An entry of an older schema is
/// stale (an eviction) and gets recomputed.
inline constexpr const char* kCacheEntrySchema = "armbar.cache.entry/v3";

/// Bump when the behaviour baked into cached values changes — the
/// simulator's timing model (new latency fields, scheduler fixes, ...),
/// the reference model's enumeration semantics, or the fuzz generator's
/// seed->program mapping. armbar-sim/5: ISSUE 5 POR checker + raised
/// generator defaults. armbar-sim/6: ISSUE 6 host-profiling release —
/// simulated values are unchanged, but the epoch bump retires any entry a
/// pre-audit build could have written with host-time contamination.
/// armbar-sim/7: ISSUE 7 fast-path interpreter (predecoded micro-ops,
/// scheduler/coherence fast paths) — timing is verified bit-identical, but
/// the rewrite is broad enough that stale-looking entries from a mid-PR
/// build are worth retiring.
/// armbar-sim/8: ISSUE 10 barrier-optimization pipeline — barrier_opt
/// cache keys now mix the full opt pass configuration (pass list, oracle
/// options, search bounds); the bump retires any entry written before
/// that config was part of the key, so cached optimization points can't
/// go stale when the pass pipeline evolves. Simulated timing unchanged
/// (epoch-neutralized digest check repeated, see POINTS_DIGESTS.json).
inline constexpr const char* kCacheEpoch = "armbar-sim/8";

class ResultCache {
 public:
  /// `dir` empty => caching disabled (lookup always misses, store drops).
  explicit ResultCache(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Hit: the cached value. Miss (or disabled/corrupt entry): nullopt.
  /// A non-null `metrics` asks for the point's stored metrics too: on a hit
  /// they replace *metrics, and an entry stored without them is stale (a
  /// miss and an eviction).
  std::optional<trace::Json> lookup(const std::string& key_hex,
                                    trace::MetricsRegistry* metrics = nullptr);

  /// Persist `value` under `key_hex`, with the run's `metrics` when the
  /// point records them. `desc` is a human-readable rendering of the key's
  /// inputs, stored for cache debugging only.
  void store(const std::string& key_hex, const std::string& desc,
             const trace::Json& value,
             const trace::MetricsRegistry* metrics = nullptr);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    /// Corrupt or stale-epoch entries dropped at lookup (each also counts
    /// as a miss; the fresh result overwrites the entry).
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  std::string path_of(const std::string& key_hex) const;

  std::string dir_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace armbar::runner

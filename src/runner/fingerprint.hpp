// Content fingerprints for the result cache (ISSUE 2).
//
// A cache key must change whenever anything that can change a simulated
// result changes: the platform (topology + every latency-table field), the
// program (every instruction field), and the run configuration (iterations,
// core binding, workload knobs). Fingerprint is a 128-bit FNV-1a digest —
// two independent 64-bit lanes — mixed field by field, never by memcpy, so
// struct padding can't leak garbage into keys.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "model/model.hpp"
#include "sim/fault/fault.hpp"
#include "sim/platform.hpp"
#include "sim/program.hpp"

namespace armbar::runner {

class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v);
  Fingerprint& mix(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }
  Fingerprint& mix(std::uint32_t v) { return mix(static_cast<std::uint64_t>(v)); }
  Fingerprint& mix(std::int32_t v) { return mix(static_cast<std::int64_t>(v)); }
  Fingerprint& mix(bool v) { return mix(static_cast<std::uint64_t>(v)); }
  Fingerprint& mix(double v);
  Fingerprint& mix(std::string_view s);
  Fingerprint& mix(const char* s) { return mix(std::string_view(s)); }

  /// Everything about a platform that can change simulated timing:
  /// topology, frequency, the whole latency table, and the MCA mode.
  Fingerprint& mix(const sim::PlatformSpec& spec);
  /// Every field of every instruction (the name is cosmetic and skipped).
  Fingerprint& mix(const sim::Program& prog);
  /// Every fault-plan field, seed included — a warm cache must never hand
  /// back fault-free results for a faulted run (ISSUE 4 audit).
  Fingerprint& mix(const sim::fault::FaultPlan& plan);
  /// Every field of a litmus-style program: name, threads, initial memory
  /// and both observation lists.
  Fingerprint& mix(const model::ConcurrentProgram& p);
  /// Every enumeration budget and the engine choice.
  Fingerprint& mix(const model::ModelOptions& o);

  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return hi_; }
  /// 32 lowercase hex chars; used as the cache file name.
  std::string hex() const;

 private:
  // FNV-1a offset bases: the standard one and a second lane decorrelated by
  // a fixed tweak so the two 64-bit digests fail independently.
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;
  std::uint64_t hi_ = 0xcbf29ce484222325ULL ^ 0x9e3779b97f4a7c15ULL;
};

}  // namespace armbar::runner

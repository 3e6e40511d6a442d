// Shared helpers for the registered fig*/table* experiments: cache-keyed
// wrappers around every simprog runner, so each sweep point is one
// content-addressed ctx.cached() call — memoized across armbar-bench runs
// and safe to evaluate from ctx.map() workers.
//
// Each wrapper mixes a function tag plus every timing-relevant input into
// the key (the platform and program fingerprints cover the heavy structs),
// and round-trips the result through the cache's JSON value shape.
#pragma once

#include <cstdint>
#include <string>

#include "common/table.hpp"
#include "runner/experiment.hpp"
#include "runner/fingerprint.hpp"
#include "simprog/abstract_model.hpp"
#include "simprog/locks_sim.hpp"
#include "simprog/prodcons.hpp"

namespace armbar::bench {

using runner::ExperimentContext;
using runner::Fingerprint;

inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

inline double json_num(const trace::Json& v, const char* key) {
  const trace::Json* f = v.find(key);
  return f != nullptr && f->is_number() ? f->number() : 0.0;
}
inline bool json_bool(const trace::Json& v, const char* key) {
  const trace::Json* f = v.find(key);
  return f != nullptr && f->is_bool() && f->boolean();
}

/// Fig 2: single-core throughput of `prog`, loops/s.
inline double cached_run_single(ExperimentContext& ctx,
                                const sim::PlatformSpec& spec,
                                const sim::Program& prog,
                                std::uint32_t iters) {
  Fingerprint key = ExperimentContext::key();
  key.mix("run_single").mix(spec).mix(prog).mix(iters);
  const trace::Json v = ctx.cached_instrumented(
      key, "run_single " + spec.name + " " + prog.name,
      [&](trace::Tracer* t, trace::MetricsRegistry* m) {
        return trace::Json(simprog::run_single(spec, prog, iters, t, m));
      });
  return v.number();
}

/// Figs 3/5: two cores over shared buffers, loops/s per core.
inline double cached_run_pair(ExperimentContext& ctx,
                              const sim::PlatformSpec& spec,
                              const sim::Program& prog, std::uint32_t iters,
                              CoreId c0, CoreId c1) {
  Fingerprint key = ExperimentContext::key();
  key.mix("run_pair").mix(spec).mix(prog).mix(iters).mix(std::uint32_t{c0})
      .mix(std::uint32_t{c1});
  const trace::Json v = ctx.cached_instrumented(
      key, "run_pair " + spec.name + " " + prog.name,
      [&](trace::Tracer* t, trace::MetricsRegistry* m) {
        return trace::Json(simprog::run_pair(spec, prog, iters, c0, c1, t, m));
      });
  return v.number();
}

inline trace::Json prodcons_to_json(const simprog::ProdConsResult& r) {
  trace::Json v = trace::Json::object();
  v.set("mps", r.msgs_per_sec);
  v.set("checksum", r.checksum);
  v.set("ok", r.checksum_ok);
  return v;
}
inline simprog::ProdConsResult prodcons_from_json(const trace::Json& v) {
  simprog::ProdConsResult r;
  r.msgs_per_sec = json_num(v, "mps");
  r.checksum = static_cast<std::uint64_t>(json_num(v, "checksum"));
  r.checksum_ok = json_bool(v, "ok");
  return r;
}

/// Fig 6a: barrier-based producer-consumer.
inline simprog::ProdConsResult cached_prodcons(
    ExperimentContext& ctx, const sim::PlatformSpec& spec,
    const simprog::ProdConsCombo& combo, std::uint32_t msgs,
    std::uint32_t produce_work, CoreId prod, CoreId cons) {
  Fingerprint key = ExperimentContext::key();
  key.mix("prodcons")
      .mix(spec)
      .mix(static_cast<std::uint32_t>(combo.avail))
      .mix(static_cast<std::uint32_t>(combo.publish))
      .mix(combo.consumer_barriers)
      .mix(msgs)
      .mix(produce_work)
      .mix(std::uint32_t{prod})
      .mix(std::uint32_t{cons});
  return prodcons_from_json(ctx.cached(
      key, "prodcons " + spec.name + " " + combo.name(), [&] {
        return prodcons_to_json(
            simprog::run_prodcons(spec, combo, msgs, produce_work, prod, cons));
      }));
}

/// Fig 6b: Pilot producer-consumer (§4.4).
inline simprog::ProdConsResult cached_prodcons_pilot(
    ExperimentContext& ctx, const sim::PlatformSpec& spec, std::uint32_t msgs,
    std::uint32_t produce_work, CoreId prod, CoreId cons) {
  Fingerprint key = ExperimentContext::key();
  key.mix("prodcons_pilot")
      .mix(spec)
      .mix(msgs)
      .mix(produce_work)
      .mix(std::uint32_t{prod})
      .mix(std::uint32_t{cons});
  return prodcons_from_json(
      ctx.cached(key, "prodcons_pilot " + spec.name, [&] {
        return prodcons_to_json(
            simprog::run_prodcons_pilot(spec, msgs, produce_work, prod, cons));
      }));
}

/// Fig 6c: batched messages, baseline vs Pilot msgs/s.
inline simprog::BatchResult cached_batch(ExperimentContext& ctx,
                                         const sim::PlatformSpec& spec,
                                         std::uint32_t batch_words,
                                         std::uint32_t msgs, CoreId prod,
                                         CoreId cons) {
  Fingerprint key = ExperimentContext::key();
  key.mix("batch").mix(spec).mix(batch_words).mix(msgs).mix(std::uint32_t{prod})
      .mix(std::uint32_t{cons});
  const trace::Json v = ctx.cached(
      key, "batch " + spec.name + " words=" + std::to_string(batch_words),
      [&] {
        const simprog::BatchResult r =
            simprog::run_batch(spec, batch_words, msgs, prod, cons);
        trace::Json j = trace::Json::object();
        j.set("baseline", r.baseline);
        j.set("pilot", r.pilot);
        return j;
      });
  simprog::BatchResult r;
  r.baseline = json_num(v, "baseline");
  r.pilot = json_num(v, "pilot");
  return r;
}

inline trace::Json lock_to_json(const simprog::LockResult& r) {
  trace::Json v = trace::Json::object();
  v.set("aps", r.acq_per_sec);
  v.set("correct", r.correct);
  v.set("cycles", r.cycles);
  return v;
}
inline simprog::LockResult lock_from_json(const trace::Json& v) {
  simprog::LockResult r;
  r.acq_per_sec = json_num(v, "aps");
  r.correct = json_bool(v, "correct");
  r.cycles = static_cast<Cycle>(json_num(v, "cycles"));
  return r;
}

inline Fingerprint lock_workload_key(const char* tag,
                                     const sim::PlatformSpec& spec,
                                     const simprog::LockWorkload& w) {
  Fingerprint key = ExperimentContext::key();
  key.mix(tag).mix(spec).mix(w.threads).mix(w.iters).mix(w.cs_lines)
      .mix(w.cs_ro_lines).mix(w.interval_nops);
  return key;
}

/// Fig 7a: ticket lock with a configurable release barrier.
inline simprog::LockResult cached_ticket(ExperimentContext& ctx,
                                         const sim::PlatformSpec& spec,
                                         const simprog::LockWorkload& w,
                                         simprog::OrderChoice release_barrier) {
  Fingerprint key = lock_workload_key("ticket", spec, w);
  key.mix(static_cast<std::uint32_t>(release_barrier));
  return lock_from_json(ctx.cached(
      key,
      "ticket " + spec.name + " t=" + std::to_string(w.threads) + " " +
          simprog::to_string(release_barrier),
      [&] { return lock_to_json(simprog::run_ticket(spec, w, release_barrier)); }));
}

/// Fig 7b/7c: FFWD delegation lock.
inline simprog::LockResult cached_ffwd(ExperimentContext& ctx,
                                       const sim::PlatformSpec& spec,
                                       const simprog::LockWorkload& w,
                                       const simprog::FfwdChoice& choice) {
  Fingerprint key = lock_workload_key("ffwd", spec, w);
  key.mix(static_cast<std::uint32_t>(choice.request_barrier))
      .mix(static_cast<std::uint32_t>(choice.response_barrier))
      .mix(choice.pilot);
  return lock_from_json(ctx.cached(
      key, "ffwd " + spec.name + " t=" + std::to_string(w.threads),
      [&] { return lock_to_json(simprog::run_ffwd(spec, w, choice)); }));
}

/// ISSUE 9 cna_scaling: CNA / MCS queue lock. New cache tag and value
/// shape (adds the exact barrier count); existing lock wrappers keep their
/// pinned JSON shape.
inline simprog::LockResult cached_cna(ExperimentContext& ctx,
                                      const sim::PlatformSpec& spec,
                                      const simprog::LockWorkload& w,
                                      const simprog::CnaChoice& choice) {
  Fingerprint key = lock_workload_key("cna", spec, w);
  key.mix(static_cast<std::uint32_t>(choice.acquire_barrier))
      .mix(static_cast<std::uint32_t>(choice.release_barrier))
      .mix(choice.local_handoff_cap)
      .mix(choice.numa_aware);
  const trace::Json v = ctx.cached(
      key,
      std::string("cna ") + (choice.numa_aware ? "numa " : "mcs ") +
          spec.name + " t=" + std::to_string(w.threads),
      [&] {
        const simprog::LockResult r = simprog::run_cna(spec, w, choice);
        trace::Json j = lock_to_json(r);
        j.set("barriers", static_cast<double>(r.barriers));
        return j;
      });
  simprog::LockResult r = lock_from_json(v);
  r.barriers = static_cast<std::uint64_t>(json_num(v, "barriers"));
  return r;
}

/// Fig 7c / Fig 8: CC-Synch combining lock.
inline simprog::LockResult cached_ccsynch(ExperimentContext& ctx,
                                          const sim::PlatformSpec& spec,
                                          const simprog::LockWorkload& w,
                                          const simprog::CcSynchChoice& choice) {
  Fingerprint key = lock_workload_key("ccsynch", spec, w);
  key.mix(static_cast<std::uint32_t>(choice.response_barrier))
      .mix(choice.pilot)
      .mix(choice.combine_budget);
  return lock_from_json(ctx.cached(
      key, "ccsynch " + spec.name + " t=" + std::to_string(w.threads),
      [&] { return lock_to_json(simprog::run_ccsynch(spec, w, choice)); }));
}

}  // namespace armbar::bench

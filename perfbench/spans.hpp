// In-memory span log for perfbench's traced runs.
//
// A span is one call into a layer, timed from the benchmark's own code:
// name, start, end, the span that caused it, and the run id (iteration)
// it belongs to. Spans stay in memory while the benchmark measures and are
// written out once, when it exits. Untraced runs pass a null Spans* and
// every SpanScope is then a no-op, so they never collect anything.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;           ///< index into the log, -1 for a root
    int run = -1;              ///< iteration id (-1: replays)
  };

  /// Open a span now; returns its index. Thread-safe.
  int open(std::string name, int parent, int run);
  void close(int idx);

  /// Sum of the durations of every closed span called `name` in `run`, in
  /// seconds. Spans run on several threads overlap, so this is busy time
  /// summed over threads, not wall time.
  double busy_s(const std::string& name, int run) const;
  double duration_s(int idx) const;
  /// Duration minus the part of the span's interval its children cover
  /// (the union of their intervals, so overlapping children count once).
  double self_s(int idx) const;

  /// Chrome trace_event JSON (one complete event per span, parent and run
  /// in args). Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> log_;
};

/// RAII span; does nothing when `spans` is null (untraced runs).
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name, int parent, int run)
      : spans_(spans),
        idx_(spans != nullptr ? spans->open(std::move(name), parent, run)
                              : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return idx_; }

 private:
  Spans* spans_;
  int idx_;
};

}  // namespace perfbench

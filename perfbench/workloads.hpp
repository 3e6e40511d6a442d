// perfbench workloads: closed batch jobs over the armbar libraries.
//
// Each iteration is one sweep or one campaign, started when the previous
// one ends. main.cpp times setup() and iterate() from outside;
// a workload only does the work, checks its outputs and, when handed a
// Spans log, fills the per-layer numbers of that iteration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Host threads every workload may use (the sweep's --jobs, the fuzz pool).
inline constexpr std::size_t kJobs = 4;

struct Config {
  std::string workload;
  std::string work_dir;  ///< scratch root of this run; removed at exit
  std::string pin_path;  ///< bench/baselines/POINTS_DIGESTS.json
  std::uint64_t fuzz_lo = 0, fuzz_hi = 0;  ///< inclusive fuzz seed range
};

/// What one iteration did and whether its outputs were right.
struct Iteration {
  double ops = 0;               ///< sweep points, fuzz seeds or programs
  std::uint64_t attempted = 0;  ///< experiments / seeds / programs
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed check
  /// Per-layer numbers of this iteration (traced iterations only).
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Bring the run to its start state. main.cpp calls this several
  /// times and reports the median as setup_s; the last call's state is the
  /// one measured. Throws std::runtime_error when the start state cannot
  /// be reached.
  virtual void setup() = 0;
  /// Untimed housekeeping before each iteration (fresh scratch dirs).
  virtual void before_iteration() {}
  /// One batch job. `spans` is null in untraced iterations; otherwise the
  /// job's spans are filed under span `parent` and iteration id `run`.
  virtual Iteration iterate(Spans* spans, int parent, int run) = 0;
  /// Traced runs only, after the last iteration: layer costs that the
  /// iterations hide, replayed through the public calls directly.
  virtual void replay(Spans& spans, std::uint64_t seed,
                      std::map<std::string, double>* layers) = 0;
};

/// Experiments the sweep workloads and opt_locks run through the engine.
const std::vector<std::string>& sweep_experiments();
const std::vector<std::string>& opt_locks_experiments();

/// Median; 0 for an empty sample.
double median(std::vector<double> v);

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const Config& cfg);

}  // namespace perfbench

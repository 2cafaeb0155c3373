#pragma once

// Experiment driver: runs instances through the three implementations with
// budget limits (the analogue of the paper's ">2 hrs" cut-off), caches each
// instance's minimum cover size (needed to derive the PVC k = min±1 rows),
// and formats result cells.

#include <map>
#include <string>

#include "harness/catalog.hpp"
#include "parallel/solver.hpp"

namespace gvc::harness {

/// The four problem instances of Table I.
enum class ProblemInstance {
  kMvc,
  kPvcMinMinus1,
  kPvcMin,
  kPvcMinPlus1,
};

const char* problem_instance_name(ProblemInstance p);

struct RunnerOptions {
  /// Budgets applied to every run; zero = unlimited.
  vc::Limits limits;

  /// Device/worklist defaults forwarded into ParallelConfig.
  device::DeviceSpec device = device::DeviceSpec::host_scaled();
  std::size_t worklist_capacity = 4096;
  double worklist_threshold_frac = 0.5;
  int start_depth = 6;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options);

  const RunnerOptions& options() const { return options_; }

  /// The instance's minimum vertex cover size, solved once (Hybrid, verified
  /// against a Sequential run at smoke scales) and memoized by instance
  /// name. Aborts if the solve hits the budget — min must be exact for the
  /// PVC rows.
  int min_cover(const Instance& inst);

  /// Runs one cell of Table I. For the PVC rows, k is derived from
  /// min_cover(inst); k = min-1 rows with min == 0 are skipped by callers.
  parallel::ParallelResult run(const Instance& inst, parallel::Method method,
                               ProblemInstance problem);

  /// Builds the ParallelConfig for a cell (exposed so ablation benches can
  /// tweak single knobs while keeping everything else identical).
  parallel::ParallelConfig make_config(ProblemInstance problem, int k) const;

  /// "1.234" for completed runs, ">limit" when the budget fired, "no" /
  /// "yes(size)" flavor is left to callers — this is the Table I time cell.
  /// Formats wall-clock seconds.
  static std::string time_cell(const parallel::ParallelResult& r);

  /// Same, but formats simulated parallel seconds (per-SM work makespan) —
  /// the primary metric for the GPU versions on this substrate.
  static std::string sim_time_cell(const parallel::ParallelResult& r);

 private:
  RunnerOptions options_;

  /// min_cover() answers by instance name.
  std::map<std::string, int> min_memo_;
};

}  // namespace gvc::harness

#pragma once

// Shared scaffolding for the table/figure reproduction binaries.
//
// Every bench accepts:
//   --scale smoke|default|large   instance sizes (smoke default, so that
//                                 `for b in build/bench/*; do $b; done`
//                                 finishes in minutes on a laptop)
//   --cell-seconds S              per-cell time budget — the analogue of the
//                                 paper's ">2 hrs" cut-off
//   --csv PATH                    mirror the table into a CSV file
//   --worklist-capacity N, --worklist-threshold F, --start-depth D
//                                 the Runner's solver shape
//
// plus the extra flags a bench declares to make_env. Any other flag (a typo
// such as --scael) prints the usage line and exits 64, as the tools do.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "harness/catalog.hpp"
#include "harness/runner.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace gvc::bench {

struct BenchEnv {
  harness::Scale scale = harness::Scale::kSmoke;
  std::vector<harness::Instance> catalog;
  harness::RunnerOptions runner_options;
  std::unique_ptr<harness::Runner> runner;
  std::unique_ptr<std::ofstream> csv_stream;
  std::unique_ptr<util::CsvWriter> csv;

  harness::Runner& r() { return *runner; }
};

inline double default_cell_seconds(harness::Scale scale) {
  switch (scale) {
    case harness::Scale::kSmoke:   return 5.0;
    case harness::Scale::kDefault: return 30.0;
    case harness::Scale::kLarge:   return 120.0;
  }
  return 5.0;
}

/// The flags make_env reads.
inline constexpr std::string_view kBenchFlags[] = {
    "scale", "cell-seconds", "worklist-capacity", "worklist-threshold",
    "start-depth", "csv"};

/// Parses the shared bench flags. `extra_flags` declares the flags the
/// bench reads itself; any other flag exits 64 with the usage line.
inline BenchEnv make_env(int argc, char** argv,
                         std::initializer_list<std::string_view> extra_flags =
                             {}) {
  util::Args args(argc, argv);
  for (const std::string& flag : args.flags()) {
    const auto is_flag = [&](std::string_view name) { return name == flag; };
    if (std::any_of(std::begin(kBenchFlags), std::end(kBenchFlags),
                    is_flag) ||
        std::any_of(extra_flags.begin(), extra_flags.end(), is_flag))
      continue;
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    std::fprintf(stderr,
                 "usage: %s [--scale smoke|default|large] [--cell-seconds S] "
                 "[--csv PATH] [--worklist-capacity N] "
                 "[--worklist-threshold F] [--start-depth D]",
                 args.program().c_str());
    for (std::string_view extra : extra_flags)
      std::fprintf(stderr, " [--%.*s ...]", static_cast<int>(extra.size()),
                   extra.data());
    std::fprintf(stderr, "\n");
    std::exit(64);
  }
  BenchEnv env;
  env.scale = harness::parse_scale(args.get("scale", "smoke"));
  env.catalog = harness::paper_catalog(env.scale);

  harness::RunnerOptions opts;
  opts.limits.time_limit_s =
      args.get_double("cell-seconds", default_cell_seconds(env.scale));
  opts.device = device::DeviceSpec::host_scaled();
  opts.worklist_capacity =
      static_cast<std::size_t>(args.get_int("worklist-capacity", 4096));
  opts.worklist_threshold_frac = args.get_double("worklist-threshold", 0.5);
  opts.start_depth = static_cast<int>(args.get_int("start-depth", 6));
  env.runner_options = opts;
  env.runner = std::make_unique<harness::Runner>(opts);

  if (args.has("csv")) {
    env.csv_stream = std::make_unique<std::ofstream>(args.get("csv"));
    env.csv = std::make_unique<util::CsvWriter>(*env.csv_stream);
  }
  return env;
}

/// Table cell for a run: simulated parallel seconds (per-SM work makespan),
/// ">limit" when the host budget fired. Simulated time is the primary
/// metric on this substrate — on a host with fewer cores than virtual SMs,
/// wall time measures total work, not parallel time (DESIGN.md §2).
inline std::string cell(const parallel::ParallelResult& r) {
  return harness::Runner::sim_time_cell(r);
}

/// The run's simulated seconds, with budget-exceeded runs clamped to the
/// budget (a conservative lower bound used by the speedup aggregations).
inline double sim_or_budget(const parallel::ParallelResult& r, double budget) {
  if (r.limit_hit()) return budget;
  return std::max(r.sim_seconds, 1e-6);
}

inline const char* scale_name(harness::Scale s) {
  switch (s) {
    case harness::Scale::kSmoke:   return "smoke";
    case harness::Scale::kDefault: return "default";
    case harness::Scale::kLarge:   return "large";
  }
  return "?";
}

}  // namespace gvc::bench

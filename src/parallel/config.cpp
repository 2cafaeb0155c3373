#include "parallel/config.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "vc/descent.hpp"

namespace gvc::parallel {

std::optional<BlockLaunch> try_plan_block_launch(const ParallelConfig& config,
                                                 bool pooled,
                                                 std::int64_t num_vertices,
                                                 int greedy_size,
                                                 const char** why) {
  const auto refuse = [why](const char* reason) -> std::optional<BlockLaunch> {
    *why = reason;
    return std::nullopt;
  };
  const bool mvc = config.problem == vc::Problem::kMvc;
  if (!mvc && config.k <= 0) return refuse("PVC requires k > 0");
  // StackOnly's grid is 2^start_depth blocks, kept well inside int.
  if (pooled && (config.start_depth < 0 || config.start_depth >= 24))
    return refuse("StackOnly start_depth outside [0, 24)");
  const std::int64_t depth_bound =
      vc::descent_depth_bound(config.problem, config.k, greedy_size);
  if (depth_bound > std::numeric_limits<int>::max())
    return refuse("search stack depth out of range");
  const std::optional<device::LaunchPlan> plan = device::try_plan_launch(
      config.device, num_vertices, static_cast<int>(depth_bound),
      config.block_size_override, why);
  if (!plan) return std::nullopt;

  BlockLaunch launch;
  launch.plan = *plan;
  launch.depth_bound = static_cast<int>(depth_bound);
  const int persistent =
      config.grid_override > 0 ? config.grid_override : plan->grid_size;
  launch.grid = pooled ? 1 << config.start_depth : persistent;
  launch.threads = pooled ? std::min(launch.grid, plan->grid_size) : persistent;
  return launch;
}

BlockLaunch plan_block_launch(const ParallelConfig& config, bool pooled,
                              std::int64_t num_vertices, int greedy_size) {
  const char* why = nullptr;
  const std::optional<BlockLaunch> launch =
      try_plan_block_launch(config, pooled, num_vertices, greedy_size, &why);
  GVC_CHECK_MSG(launch.has_value(), why);
  return *launch;
}

}  // namespace gvc::parallel

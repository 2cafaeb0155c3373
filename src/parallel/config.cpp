#include "parallel/config.hpp"

#include <algorithm>
#include <limits>
#include <utility>

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

LaunchFrame::LaunchFrame(const graph::CsrGraph& g,
                         const ParallelConfig& config, bool pooled,
                         vc::SolveControl* control, SolveWorkspace* workspace,
                         const StealEnv* env)
    : g_(g),
      config_(config),
      pooled_(pooled),
      greedy_(vc::greedy_mvc(g)),
      launch_([&] {
        const char* why = nullptr;
        const std::optional<BlockLaunch> launch = try_plan_block_launch(
            config, pooled, g.num_vertices(), greedy_.size, &why);
        GVC_CHECK_MSG(launch.has_value(), why);
        return *launch;
      }()),
      sc_(sequential_config_of(config)),
      shared_(config.problem, config.k, greedy_.size, std::move(greedy_.cover),
              control),
      scratch_(workspace, launch_.threads) {
  // A migrated node re-enters through vc::search_subtree against THIS
  // solve's shared search, on whichever thread imports it.
  if (env != nullptr && env->broker != nullptr)
    migrate_.emplace(*env->broker, env->device_id,
                     [this](vc::DegreeArray&& node, vc::ReduceWorkspace& ws) {
                       vc::search_subtree(g_, sc_, shared_, std::move(node),
                                          ws);
                     });
}

ParallelResult LaunchFrame::run(
    const std::function<void(device::BlockContext&)>& body) {
  ParallelResult result;
  result.plan = launch_.plan;
  device::VirtualDevice dev(config_.device);
  result.launch = dev.launch(launch_.grid, /*cooperative=*/!pooled_, body,
                             launch_.threads);

  // Settle migrated nodes BEFORE harvesting: un-imported exports are
  // unexplored subtrees (a clean MVC optimum must cover them), so they run
  // here unless the solve already stopped, and the drain waits out every
  // remotely running import — nothing references `shared_` after it.
  if (migrate_.has_value()) {
    vc::ReduceWorkspace reclaim_ws;
    const bool abandon =
        shared_.aborted() ||
        (config_.problem != vc::Problem::kMvc && shared_.pvc_found());
    migrate_->drain(reclaim_ws, abandon);
  }

  static_cast<vc::SolveResult&>(result) = shared_.harvest();
  result.greedy_upper_bound = greedy_.size;
  result.seconds = timer_.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  return result;
}

}  // namespace gvc::parallel

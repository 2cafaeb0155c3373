#include "parallel/stack_only.hpp"

#include <utility>

#include "parallel/node_visit.hpp"
#include "parallel/shared_state.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/branching.hpp"
#include "vc/descent.hpp"
#include "vc/greedy.hpp"
#include "vc/reductions.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;

}  // namespace

ParallelResult solve_stack_only(const CsrGraph& g,
                                const ParallelConfig& config,
                                vc::SolveControl* control,
                                SolveWorkspace* workspace) {
  util::WallTimer timer;
  ParallelResult result;

  const bool mvc = config.problem == vc::Problem::kMvc;

  // Greedy approximation on the CPU (§II-B): seeds `best` and bounds the
  // local stack depth (§IV-E).
  vc::GreedyResult greedy = vc::greedy_mvc(g);
  result.greedy_upper_bound = greedy.size;

  // One block per depth-D branch pattern, drained by the plan's resident
  // slots. grid_override is not meaningful here: the grid is structurally
  // 2^start_depth.
  const BlockLaunch launch = plan_block_launch(
      config, /*pooled=*/true, g.num_vertices(), greedy.size);
  result.plan = launch.plan;

  SharedSearch shared(config.problem, config.k, greedy.size,
                      std::move(greedy.cover), control);

  // Scratch is keyed on the resident slot, not the block, so the pool
  // stays resident-sized however deep the start frontier is.
  if (workspace) workspace->prepare(launch.threads);

  auto body = [&](device::BlockContext& ctx) {
    if (shared.aborted()) return;
    if (!mvc && shared.pvc_found()) return;

    // Phase 1 — descend from the root to this block's sub-tree, replaying
    // the branch decisions encoded in the block id (redundant across blocks
    // with a shared prefix; that redundancy is the point of the baseline).
    vc::DegreeArray da(g);
    vc::ReduceWorkspace local_ws;  // per-block reduce scratch (cold path)
    vc::ReduceWorkspace& ws =
        workspace ? workspace->block(ctx.slot_id()) : local_ws;
    vc::Descent descent(g, config.branch_state, launch.depth_bound, ws,
                        &ctx.activities());
    descent.adopt(da);                 // root pickup
    NodeBatch nodes(shared);           // batched node accounting (limits)
    device::NodeCounter visited(ctx);  // batched Fig. 5 node counting
    Vertex vmax = -1;
    for (int level = 0; level < config.start_depth; ++level) {
      NodeOutcome out =
          process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
      if (out != NodeOutcome::kBranch) return;  // sub-tree is empty
      if ((ctx.block_id() >> level) & 1) {
        ActivityScope scope(ctx.activities(), Activity::kRemoveNeighbors);
        da.remove_neighbors_into_solution(g, vmax);
      } else {
        ActivityScope scope(ctx.activities(), Activity::kRemoveMaxVertex);
        da.remove_into_solution(g, vmax);
      }
    }

    // Phase 2 — depth-first traversal of the sub-tree. Nothing in it ever
    // leaves the block, so every neighbors child is deferred.
    for (;;) {
      if (!mvc && shared.pvc_found()) return;
      NodeOutcome out =
          process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
      if (out == NodeOutcome::kAbort) return;
      if (out == NodeOutcome::kBranch) {
        descent.branch(da, vmax);
        continue;
      }
      if (!descent.next(da)) return;  // sub-tree exhausted
    }
  };

  device::VirtualDevice dev(config.device);
  result.launch =
      dev.launch(launch.grid, /*cooperative=*/false, body, launch.threads);

  static_cast<vc::SolveResult&>(result) = shared.harvest();
  result.greedy_upper_bound = greedy.size;
  result.seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  return result;
}

}  // namespace gvc::parallel

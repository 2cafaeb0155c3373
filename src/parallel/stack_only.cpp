#include "parallel/stack_only.hpp"

#include "vc/descent.hpp"
#include "vc/search.hpp"

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
  const bool mvc = config.problem == vc::Problem::kMvc;

  // One block per depth-D branch pattern, drained by the plan's resident
  // slots. grid_override is not meaningful here: the grid is structurally
  // 2^start_depth.
  LaunchFrame frame(g, config, /*pooled=*/true, control, workspace);
  vc::SharedSearch& shared = frame.shared();

  return frame.run([&](device::BlockContext& ctx) {
    if (shared.aborted()) return;
    if (!mvc && shared.pvc_found()) return;

    // Phase 1 — descend from the root to this block's sub-tree, replaying
    // the branch decisions encoded in the block id (redundant across blocks
    // with a shared prefix; that redundancy is the point of the baseline).
    vc::DegreeArray da(g);
    vc::Descent descent(g, config.branch_state, frame.launch().depth_bound,
                        frame.scratch(ctx), &ctx.activities());
    descent.adopt(da);  // root pickup
    vc::BlockSearch search = frame.block_search(ctx);
    Vertex vmax = -1;
    for (int level = 0; level < config.start_depth; ++level) {
      if (search.visit(da, vmax) != vc::NodeOutcome::kBranch)
        return;  // sub-tree is empty
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
    search.descend(descent, da);
  });
}

}  // namespace gvc::parallel

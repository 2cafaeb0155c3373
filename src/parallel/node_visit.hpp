#pragma once

// One branch-and-reduce node visit (Fig. 1 lines 3-19, Fig. 4 lines 7-19),
// shared by the block loops of StackOnly, Hybrid, GlobalOnly and
// WorkStealing and by the migrated-node drain. Keeping the visit in one
// place is what guarantees a future change to the accounting, the prune
// bound, or the cover harvest cannot split the kCopy/kUndoTrail bit-identity
// contract: how a block carries state between visits is vc::Descent's
// business (vc/descent.hpp), not the loops'.

#include "device/virtual_device.hpp"
#include "obs/trace.hpp"
#include "parallel/config.hpp"
#include "parallel/shared_state.hpp"
#include "util/timer.hpp"
#include "vc/branching.hpp"
#include "vc/descent.hpp"
#include "vc/reductions.hpp"

namespace gvc::parallel {

enum class NodeOutcome { kAbort, kPruned, kFound, kBranch };

/// One visit: account the node against the shared limits, reduce, stopping
/// condition (§II-B), cover check, branch selection. On kBranch, vmax_out
/// holds the branching vertex. On kFound the cover has already been offered
/// to (MVC) or latched in (PVC) `shared`; the caller only decides whether
/// its loop continues.
inline NodeOutcome process_node(const graph::CsrGraph& g,
                                const ParallelConfig& config,
                                SharedSearch& shared, NodeBatch& nodes,
                                device::NodeCounter& visited,
                                device::BlockContext& ctx, vc::DegreeArray& da,
                                vc::ReduceWorkspace& workspace,
                                graph::Vertex& vmax_out) {
  if (!nodes.register_node()) return NodeOutcome::kAbort;
  visited.tick();

  const bool mvc = config.problem == vc::Problem::kMvc;
  const vc::BudgetPolicy policy = mvc ? vc::BudgetPolicy::mvc(shared.best())
                                      : vc::BudgetPolicy::pvc(config.k);
  vc::reduce(g, da, policy, config.semantics, config.rules, &ctx.activities(),
             &workspace);

  const std::int64_t s = da.solution_size();
  const std::int64_t e = da.num_edges();
  if (mvc) {
    const std::int64_t best = shared.best();
    if (s >= best || e > (best - s - 1) * (best - s - 1)) {
      obs::trace_instant_sampled(obs::TraceCat::kBranch, "prune", "size", s);
      return NodeOutcome::kPruned;
    }
  } else {
    const std::int64_t k = config.k;
    if (s > k || e > (k - s) * (k - s)) {
      obs::trace_instant_sampled(obs::TraceCat::kBranch, "prune", "size", s);
      return NodeOutcome::kPruned;
    }
  }

  graph::Vertex vmax;
  {
    util::ActivityScope scope(ctx.activities(), util::Activity::kFindMaxDegree);
    vmax = vc::select_branch_vertex(da, config.branch, config.branch_seed);
  }
  if (vmax < 0) {  // edgeless: cover found
    obs::trace_instant(obs::TraceCat::kBranch, "cover", "size", s);
    if (mvc)
      shared.offer_cover(da);
    else
      shared.set_pvc_found(da);
    return NodeOutcome::kFound;
  }
  obs::trace_instant_sampled(obs::TraceCat::kBranch, "branch", "v", vmax);
  vmax_out = vmax;
  return NodeOutcome::kBranch;
}

/// Runs one migrated (or reclaimed) donation snapshot to exhaustion against
/// its owning solve's SharedSearch: a depth-first Descent (under the solve's
/// branch-state mode) over the same process_node() visit the block loops
/// use, so a node that crossed a device boundary is explored under exactly
/// the owner's semantics — same prune bound (the owner's live `best`), same
/// budgets, same cover harvest. The caller provides its OWN reduce scratch,
/// trail included (an importing service worker passes its idle workspace;
/// the owner's reclaim path passes a fresh one). Never re-exports: a
/// migrated subtree is drained where it landed, which is what makes the
/// broker's executed-or-abandoned accounting exact. Stops early — like any
/// block — when the shared search aborts or a PVC cover is latched.
inline void drain_subtree(const graph::CsrGraph& g,
                          const ParallelConfig& config, SharedSearch& shared,
                          vc::DegreeArray da, vc::ReduceWorkspace& ws) {
  // Instrumentation sinks: migrated nodes run outside any launch, so block
  // stats go nowhere (the service charges the wall time to its own phase
  // table); shared-node accounting still flows through NodeBatch.
  device::BlockContext ctx(/*block_id=*/0, /*sm_id=*/0);
  NodeBatch nodes(shared);
  device::NodeCounter visited(ctx);
  const bool mvc = config.problem == vc::Problem::kMvc;

  // `best` only falls, so its value now bounds the depth below this node.
  vc::Descent descent(
      g, config.branch_state,
      vc::descent_depth_bound(config.problem, config.k, shared.best()), ws);
  descent.adopt(da);
  for (;;) {
    if (!mvc && shared.pvc_found()) return;
    if (shared.aborted()) return;

    graph::Vertex vmax = -1;
    NodeOutcome out =
        process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
    if (out == NodeOutcome::kAbort) return;
    if (out == NodeOutcome::kFound && !mvc) return;
    if (out == NodeOutcome::kBranch) {
      descent.branch(da, vmax);
      continue;
    }
    if (!descent.next(da)) return;
  }
}

}  // namespace gvc::parallel

#include "parallel/global_only.hpp"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/timer.hpp"
#include "vc/greedy.hpp"
#include "vc/search.hpp"
#include "worklist/global_worklist.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;
using worklist::GlobalWorklist;

}  // namespace

ParallelResult solve_global_only(const CsrGraph& g,
                                 const ParallelConfig& config,
                                 vc::SolveControl* control,
                                 SolveWorkspace* workspace) {
  util::WallTimer timer;
  ParallelResult result;

  const bool mvc = config.problem == vc::Problem::kMvc;

  vc::GreedyResult greedy = vc::greedy_mvc(g);
  result.greedy_upper_bound = greedy.size;

  const BlockLaunch launch = plan_block_launch(
      config, /*pooled=*/false, g.num_vertices(), greedy.size);
  result.plan = launch.plan;
  const int grid = launch.grid;

  const vc::SequentialConfig sc = sequential_config_of(config);
  vc::SharedSearch shared(config.problem, config.k, greedy.size,
                          std::move(greedy.cover), control);

  // Note: config.branch_state is ignored here. The strawman hands BOTH
  // children to the worklist at every branch — there is no local
  // depth-first descent, so there is nothing an undo trail could roll
  // back; every child must be a self-contained snapshot regardless.
  //
  // Threshold == capacity: the donation gate never rejects below fullness,
  // so try_donate degenerates to "add unless full" — the per-node policy of
  // the strawman. rejected_full then counts exactly the explosion events.
  GlobalWorklist worklist(config.worklist_capacity, config.worklist_capacity,
                          grid);
  worklist.add(vc::DegreeArray(g));

  std::atomic<std::uint64_t> spills{0};
  if (workspace) workspace->prepare(grid);

  auto body = [&](device::BlockContext& ctx) {
    // Host-side escape hatch for a full queue; see the header comment. The
    // pure design has no per-block storage at all.
    std::vector<vc::DegreeArray> spill;
    vc::DegreeArray da;
    vc::DegreeArray child;
    vc::ReduceWorkspace local_ws;  // per-block reduce scratch (cold path)
    vc::ReduceWorkspace& ws =
        workspace ? workspace->block(ctx.block_id()) : local_ws;
    vc::BlockSearch search(g, sc, shared, ws, &ctx.activities(),
                           &ctx.mutable_stats().nodes_visited);
    bool have_node = false;

    for (;;) {
      if (!mvc && shared.pvc_found()) return;
      if (shared.aborted()) {
        worklist.signal_stop();
        return;
      }

      if (!have_node) {
        if (!spill.empty()) {
          ActivityScope scope(ctx.activities(), Activity::kStackPop);
          da = std::move(spill.back());
          spill.pop_back();
        } else {
          std::uint64_t t0 = util::now_ns();
          GlobalWorklist::RemoveOutcome out = worklist.remove(da);
          std::uint64_t elapsed = util::now_ns() - t0;
          if (out == GlobalWorklist::RemoveOutcome::kDone) {
            ctx.activities().add(Activity::kTerminate, elapsed);
            return;
          }
          ctx.activities().add(Activity::kWorklistRemove, elapsed);
        }
        vc::adopt_node(da);  // fresh standalone node (spill or global)
      }
      have_node = false;

      Vertex vmax = -1;
      const vc::NodeOutcome out = search.visit(da, vmax);
      if (out == vc::NodeOutcome::kAbort ||
          (out == vc::NodeOutcome::kFound && !mvc)) {
        worklist.signal_stop();
        return;
      }
      if (out != vc::NodeOutcome::kBranch) continue;

      // Branch: the strawman hands BOTH children to the worklist rather
      // than keeping one. The vmax child goes second so that under spill
      // the locally retained order still favors the deeper (neighbors)
      // branch, mirroring Fig. 4's traversal order.
      {
        ActivityScope scope(ctx.activities(), Activity::kRemoveNeighbors);
        child = da;
        child.remove_neighbors_into_solution(g, vmax);
      }
      {
        ActivityScope scope(ctx.activities(), Activity::kRemoveMaxVertex);
        da.remove_into_solution(g, vmax);
      }
      bool donated_child;
      {
        ActivityScope scope(ctx.activities(), Activity::kWorklistAdd);
        donated_child = worklist.try_donate(std::move(child));
      }
      if (!donated_child) {
        spills.fetch_add(1, std::memory_order_relaxed);
        obs::trace_instant(obs::TraceCat::kWork, "spill");
        ActivityScope scope(ctx.activities(), Activity::kStackPush);
        spill.push_back(child);
      }
      bool donated_self;
      {
        ActivityScope scope(ctx.activities(), Activity::kWorklistAdd);
        donated_self = worklist.try_donate(std::move(da));
      }
      if (!donated_self) {
        // Keep it in hand: processing it directly is cheaper than a spill
        // round-trip and keeps the loop structure of Fig. 4.
        spills.fetch_add(1, std::memory_order_relaxed);
        obs::trace_instant(obs::TraceCat::kWork, "spill");
        have_node = true;
      }
    }
  };

  device::VirtualDevice dev(config.device);
  result.launch = dev.launch(grid, /*cooperative=*/true, body);

  static_cast<vc::SolveResult&>(result) = shared.harvest();
  result.greedy_upper_bound = greedy.size;
  result.seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  result.worklist = worklist.stats();
  result.overflow_spills = spills.load(std::memory_order_relaxed);
  return result;
}

}  // namespace gvc::parallel

#include "parallel/hybrid.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "util/timer.hpp"
#include "vc/descent.hpp"
#include "vc/greedy.hpp"
#include "vc/search.hpp"
#include "worklist/device_broker.hpp"
#include "worklist/global_worklist.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;
using worklist::GlobalWorklist;

}  // namespace

ParallelResult solve_hybrid(const CsrGraph& g, const ParallelConfig& config,
                            vc::SolveControl* control,
                            SolveWorkspace* workspace, const StealEnv* env) {
  util::WallTimer timer;
  ParallelResult result;

  const bool mvc = config.problem == vc::Problem::kMvc;

  vc::GreedyResult greedy = vc::greedy_mvc(g);
  result.greedy_upper_bound = greedy.size;

  const BlockLaunch launch = plan_block_launch(
      config, /*pooled=*/false, g.num_vertices(), greedy.size);
  result.plan = launch.plan;

  // Persistent grid: every block participates in the termination protocol,
  // so the grid size is exactly the resident-block count.
  const int grid = launch.grid;

  const vc::SequentialConfig sc = sequential_config_of(config);
  vc::SharedSearch shared(config.problem, config.k, greedy.size,
                          std::move(greedy.cover), control);

  const auto threshold = static_cast<std::size_t>(
      config.worklist_threshold_frac *
      static_cast<double>(config.worklist_capacity));
  GlobalWorklist worklist(config.worklist_capacity,
                          std::min(threshold, config.worklist_capacity), grid);

  // Seed: the worklist initially holds the root of the tree (§IV-A).
  worklist.add(vc::DegreeArray(g));

  if (workspace) workspace->prepare(grid);

  // Cross-device migration (steal tier 2): register this solve with the
  // hosting service's broker. A migrated node re-enters through
  // vc::search_subtree — the same visit a donated node gets — run against
  // THIS solve's shared search, on whichever thread imports it.
  std::optional<worklist::DeviceBroker::Group> steal_group;
  if (env != nullptr && env->broker != nullptr)
    steal_group.emplace(*env->broker, env->device_id,
                        [&](vc::DegreeArray&& node, vc::ReduceWorkspace& ws) {
                          vc::search_subtree(g, sc, shared, std::move(node),
                                             ws);
                        });
  worklist::DeviceBroker::Group* migrate =
      steal_group.has_value() ? &*steal_group : nullptr;

  auto body = [&](device::BlockContext& ctx) {
    vc::DegreeArray da;
    vc::DegreeArray snapshot;  // reusable donation buffer
    vc::ReduceWorkspace local_ws;  // per-block reduce scratch (cold path)
    vc::ReduceWorkspace& ws =
        workspace ? workspace->block(ctx.block_id()) : local_ws;
    vc::Descent descent(g, config.branch_state, launch.depth_bound, ws,
                        &ctx.activities());
    vc::BlockSearch search(g, sc, shared, ws, &ctx.activities(),
                           &ctx.mutable_stats().nodes_visited);
    bool enter = false;  // true while da holds an unprocessed node

    for (;;) {
      // PVC: blocks check the found-flag before picking up new work (§IV-A);
      // the abort latch (node/time budget) exits the same way.
      if (!mvc && shared.pvc_found()) return;
      if (shared.aborted()) {
        worklist.signal_stop();
        return;
      }

      // Move on to the next deferred node; when this block's sub-tree is
      // exhausted, adopt a new root from the worklist. Wall time on the
      // activity clock, like every activity: the whole wait is charged, as
      // SM cycles spent waiting are in Fig. 6.
      if (!enter && !descent.next(da)) {
        std::uint64_t t0 = util::now_ns();
        GlobalWorklist::RemoveOutcome out = worklist.remove(da);
        std::uint64_t elapsed = util::now_ns() - t0;
        if (out == GlobalWorklist::RemoveOutcome::kDone) {
          // Waiting that ends in termination is charged to "Terminate".
          ctx.activities().add(Activity::kTerminate, elapsed);
          return;
        }
        ctx.activities().add(Activity::kWorklistRemove, elapsed);
        descent.adopt(da);  // adopted a donated node
      }
      enter = false;

      Vertex vmax = -1;
      const vc::NodeOutcome out = search.visit(da, vmax);
      if (out == vc::NodeOutcome::kAbort ||
          (out == vc::NodeOutcome::kFound && !mvc)) {
        worklist.signal_stop();
        return;
      }
      if (out != vc::NodeOutcome::kBranch) continue;  // enter stays false

      // Branch (Fig. 4 lines 20-29): donate the neighbors child if a starved
      // remote device or the worklist wants it, otherwise defer it; then
      // continue immediately with the vmax child. The broker outranks the
      // worklist: remote demand means a whole device is idle, while the
      // worklist threshold only signals local blocks MAY go hungry soon.
      // The donation snapshot is materialized only once a taker is on the
      // table; with no broker (or no demand) the single-device path runs
      // unchanged.
      bool donated = false;
      const vc::DegreeArray* built = nullptr;
      const bool broker_wants = migrate != nullptr && migrate->want_export();
      // The gate is polled exactly when a LOCAL donation is on the table:
      // up front in the no-broker path, or after a failed export — a
      // fallback donation must clear the same gate it would have cleared
      // without a broker, so attaching one never changes local donation
      // pressure.
      bool gate_open = !broker_wants && worklist.poll_donate_gate();
      if (broker_wants || gate_open) {
        {
          ActivityScope scope(ctx.activities(), Activity::kRemoveNeighbors);
          snapshot = da;
          snapshot.remove_neighbors_into_solution(g, vmax);
        }
        built = &snapshot;
        ActivityScope scope(ctx.activities(), Activity::kWorklistAdd);
        if (broker_wants) {
          donated = migrate->try_export(std::move(snapshot));
          if (donated)
            obs::trace_instant(obs::TraceCat::kWork, "migrate");
          else
            gate_open = worklist.poll_donate_gate();
        }
        if (!donated && gate_open) {
          donated = worklist.try_donate(std::move(snapshot));
          if (donated) obs::trace_instant(obs::TraceCat::kWork, "donate");
        }
      }
      // A snapshot that found no taker is deferred as is (copy mode).
      descent.branch(da, vmax, /*neighbors_kept=*/!donated, built);
      enter = true;
    }
  };

  device::VirtualDevice dev(config.device);
  result.launch = dev.launch(grid, /*cooperative=*/true, body);

  // Settle migrated nodes BEFORE harvesting: un-imported exports are taken
  // back and run inline (they are unexplored subtrees — a clean MVC
  // optimum must cover them) unless the solve already stopped, and the
  // drain blocks until every remotely running import has completed against
  // `shared` — nothing references this solve's stack after this line.
  if (migrate != nullptr) {
    vc::ReduceWorkspace reclaim_ws;
    const bool abandon = shared.aborted() || (!mvc && shared.pvc_found());
    migrate->drain(reclaim_ws, abandon);
  }

  static_cast<vc::SolveResult&>(result) = shared.harvest();
  result.greedy_upper_bound = greedy.size;
  result.seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  result.worklist = worklist.stats();
  return result;
}

}  // namespace gvc::parallel

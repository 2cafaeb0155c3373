#include "parallel/hybrid.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "vc/descent.hpp"
#include "vc/search.hpp"
#include "worklist/device_broker.hpp"
#include "worklist/global_worklist.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;
using worklist::charged_acquire;
using worklist::GlobalWorklist;

}  // namespace

ParallelResult solve_hybrid(const CsrGraph& g, const ParallelConfig& config,
                            vc::SolveControl* control,
                            SolveWorkspace* workspace, const StealEnv* env) {
  const bool mvc = config.problem == vc::Problem::kMvc;

  // Persistent grid: every block participates in the termination protocol,
  // so the grid size is exactly the resident-block count.
  LaunchFrame frame(g, config, /*pooled=*/false, control, workspace, env);
  vc::SharedSearch& shared = frame.shared();
  worklist::DeviceBroker::Group* const migrate = frame.migrate();

  const auto threshold = static_cast<std::size_t>(
      config.worklist_threshold_frac *
      static_cast<double>(config.worklist_capacity));
  GlobalWorklist worklist(config.worklist_capacity,
                          std::min(threshold, config.worklist_capacity),
                          frame.launch().grid);

  // Seed: the worklist initially holds the root of the tree (§IV-A).
  worklist.add(vc::DegreeArray(g));

  ParallelResult result = frame.run([&](device::BlockContext& ctx) {
    vc::DegreeArray da;
    vc::DegreeArray snapshot;  // reusable donation buffer
    vc::Descent descent(g, config.branch_state, frame.launch().depth_bound,
                        frame.scratch(ctx), &ctx.activities());
    vc::BlockSearch search = frame.block_search(ctx);
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
      // exhausted, adopt a new root from the worklist.
      if (!enter && !descent.next(da)) {
        if (!charged_acquire(ctx.activities(),
                             [&] { return worklist.remove(da); }))
          return;
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
  });
  result.worklist = worklist.stats();
  return result;
}

}  // namespace gvc::parallel

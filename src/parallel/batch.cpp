#include "parallel/batch.hpp"

#include <algorithm>
#include <thread>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/sequential.hpp"

namespace gvc::parallel {

BatchResult solve_batch(const std::vector<const graph::CsrGraph*>& graphs,
                        const ParallelConfig& config,
                        vc::SolveControl* control, SolveWorkspace* workspace) {
  BatchResult result;
  if (graphs.empty()) return result;
  for (const auto* g : graphs) GVC_CHECK(g != nullptr);

  util::WallTimer timer;

  // Size the resident pool off what the heaviest Sequential block holds: at
  // most depth + 1 degree arrays of its graph (its copy-mode DFS stack; the
  // undo-trail engine holds one), where the depth is at most min(|V|, |E|)
  // because every branch puts a vertex of positive degree into the cover.
  // The plan keys entries on the largest |V| and expresses that footprint as
  // a stack depth in those entries, capped at what one resident block can
  // hold: the plan only sizes host-thread slots, so a record heavier than
  // the device's global memory runs at one slot instead of aborting.
  std::int64_t max_n = 1;
  std::int64_t heaviest_bytes = 0;
  for (const auto* g : graphs) {
    const std::int64_t n = g->num_vertices();
    max_n = std::max(max_n, n);
    heaviest_bytes = std::max(
        heaviest_bytes, device::degree_array_bytes(n) *
                            (std::min<std::int64_t>(n, g->num_edges()) + 2));
  }
  const std::int64_t entry = device::degree_array_bytes(max_n);
  const std::int64_t depth =
      std::clamp<std::int64_t>((heaviest_bytes + entry - 1) / entry, 1,
                               std::max<std::int64_t>(
                                   config.device.global_mem_bytes / entry, 1));
  result.plan = device::plan_launch(config.device, max_n,
                                    static_cast<int>(depth),
                                    config.block_size_override);
  const int grid = static_cast<int>(graphs.size());
  // Default residency: the §IV-E occupancy plan, additionally capped at the
  // HOST's core count. `plan` records the simulated device's residency
  // untouched, but batch slots are host threads running real searches — on
  // a machine with fewer cores than the plan's grid, extra slots only add
  // context switches to a throughput path. An explicit grid_override is
  // respected as given (tests pin determinism knobs with it).
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const int resident =
      config.grid_override > 0
          ? std::min(config.grid_override, grid)
          : std::min({result.plan.grid_size, grid, cores});
  GVC_CHECK(resident > 0);

  const vc::SequentialConfig sc = sequential_config_of(config);
  // Scratch is keyed on the resident slot, not the block: a 10k-graph batch
  // reuses ~resident workspaces instead of allocating 10k.
  BlockScratch scratch(workspace, resident);

  result.results.resize(graphs.size());
  device::VirtualDevice device(config.device);

  obs::TraceSpan span(obs::TraceCat::kSolve, "SolveBatch", "graphs", grid);
  result.launch = device.launch(
      grid, /*cooperative=*/false,
      [&](device::BlockContext& ctx) {
        const int b = ctx.block_id();
        vc::SolveResult r =
            vc::solve_sequential(*graphs[static_cast<std::size_t>(b)], sc,
                                 control, &scratch.block(ctx.slot_id()));
        ctx.count_nodes(r.tree_nodes);
        result.results[static_cast<std::size_t>(b)] = std::move(r);
      },
      resident);

  result.wall_seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  return result;
}

}  // namespace gvc::parallel

#include "parallel/work_stealing.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "vc/search.hpp"
#include "worklist/device_broker.hpp"
#include "worklist/idle_termination.hpp"
#include "worklist/steal_deque.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;
using worklist::charged_acquire;
using worklist::StealDeque;

/// The deque ensemble and its all-idle termination: a thief that finds
/// every deque empty waits in worklist::IdleTermination, the protocol
/// GlobalWorklist runs over its single queue (§IV-C); here the attempt is
/// one scan of the victims, and a sleeper wakes early on stop/done only.
class StealGroup {
 public:
  StealGroup(Vertex n, int depth_bound, int grid) : idle_(grid) {
    deques_.reserve(static_cast<std::size_t>(grid));
    // Pool headroom = grid: at most every other block can hold an in-flight
    // extraction against one deque (plus the owner's own), so the Chase–Lev
    // payload pool can never exhaust mid-steal.
    for (int i = 0; i < grid; ++i)
      deques_.push_back(
          std::make_unique<StealDeque>(n, depth_bound, /*steal_headroom=*/grid));
  }

  int grid() const { return static_cast<int>(deques_.size()); }
  StealDeque& deque(int block) { return *deques_[static_cast<std::size_t>(block)]; }

  /// Wakes sleeping thieves after a push made work visible.
  void notify() { idle_.notify(); }
  void signal_stop() { idle_.signal_stop(); }

  /// Blocking acquisition for an idle block; each attempt scans the
  /// victims round-robin from `thief + 1`.
  worklist::Acquired steal(int thief, vc::DegreeArray& out,
                           std::uint64_t* attempts) {
    return idle_.acquire([&] { return scan(thief, out, attempts); });
  }

 private:
  bool scan(int thief, vc::DegreeArray& out, std::uint64_t* attempts) {
    const int n = grid();
    for (int step = 1; step <= n; ++step) {
      // Own deque last: it was already drained by the owner-pop path, but a
      // completed steal may have been pushed back meanwhile.
      StealDeque& victim = deque((thief + step) % n);
      if (victim.empty_approx()) continue;
      ++*attempts;
      if (victim.try_steal_top(out)) return true;
    }
    return false;
  }

  std::vector<std::unique_ptr<StealDeque>> deques_;
  worklist::IdleTermination idle_;
};

}  // namespace

ParallelResult solve_work_stealing(const CsrGraph& g,
                                   const ParallelConfig& config,
                                   vc::SolveControl* control,
                                   SolveWorkspace* workspace,
                                   const StealEnv* env) {
  const bool mvc = config.problem == vc::Problem::kMvc;

  // Steal tier 2: Chase–Lev donation snapshots are already detached, so
  // crossing a device is the same contract as being stolen.
  LaunchFrame frame(g, config, /*pooled=*/false, control, workspace, env);
  vc::SharedSearch& shared = frame.shared();
  worklist::DeviceBroker::Group* const migrate = frame.migrate();
  const int grid = frame.launch().grid;
  StealGroup group(g.num_vertices(), frame.launch().depth_bound, grid);

  // Seed: the root goes to block 0's deque; everyone else starts stealing.
  group.deque(0).push_bottom(vc::DegreeArray(g));

  std::atomic<std::uint64_t> steal_attempts_total{0};
  std::atomic<std::uint64_t> steals_total{0};

  // One block loop for both branch-state modes: like the paper's
  // WorkStealing baseline, every branch materializes the neighbors child and
  // publishes it on the own deque, so thieves always take the oldest
  // (shallowest, largest) subtree; the owner continues on the vmax child.
  // config.branch_state is ignored, as in GlobalOnly.
  ParallelResult result = frame.run([&](device::BlockContext& ctx) {
    const int id = ctx.block_id();
    StealDeque& own = group.deque(id);
    vc::DegreeArray da;
    vc::DegreeArray child;
    vc::BlockSearch search = frame.block_search(ctx);
    bool get_new_node = true;
    std::uint64_t attempts = 0;

    for (;;) {
      if (!mvc && shared.pvc_found()) break;
      if (shared.aborted()) {
        group.signal_stop();
        break;
      }

      if (get_new_node) {
        bool popped;
        {
          ActivityScope scope(ctx.activities(), Activity::kStackPop);
          popped = own.try_pop_bottom(da);
        }
        if (!popped) {
          // Cross-block traffic is charged like worklist removal so the
          // Fig. 6-style breakdown compares load-balancing overheads
          // across methods one-to-one.
          if (!charged_acquire(ctx.activities(),
                               [&] { return group.steal(id, da, &attempts); }))
            break;
          steals_total.fetch_add(1, std::memory_order_relaxed);
          obs::trace_instant(obs::TraceCat::kWork, "steal", "attempts",
                             static_cast<std::int64_t>(attempts));
        }
        vc::adopt_node(da);  // fresh standalone node (pop or steal)
      }

      Vertex vmax = -1;
      const vc::NodeOutcome out = search.visit(da, vmax);
      if (out == vc::NodeOutcome::kAbort ||
          (out == vc::NodeOutcome::kFound && !mvc)) {
        group.signal_stop();
        break;
      }
      if (out != vc::NodeOutcome::kBranch) {
        get_new_node = true;
        continue;
      }

      // Branch exactly like Hybrid, except the neighbors child goes to the
      // OWN deque — load balancing is the thieves' job — unless a starved
      // remote device claims it first (tier-2 migration).
      {
        ActivityScope scope(ctx.activities(), Activity::kRemoveNeighbors);
        child = da;
        child.remove_neighbors_into_solution(g, vmax);
      }
      if (migrate != nullptr && migrate->want_export() &&
          migrate->try_export(std::move(child))) {
        obs::trace_instant(obs::TraceCat::kWork, "migrate");
      } else {
        {
          ActivityScope scope(ctx.activities(), Activity::kStackPush);
          own.push_bottom(child);
        }
        group.notify();
      }
      {
        ActivityScope scope(ctx.activities(), Activity::kRemoveMaxVertex);
        da.remove_into_solution(g, vmax);
      }
      get_new_node = false;
    }
    steal_attempts_total.fetch_add(attempts, std::memory_order_relaxed);
  });

  // Map the deque ensemble's counters onto WorklistStats so the benches can
  // report all methods through one schema: adds = pushes, removes = owner
  // pops + successful steals; max_size_seen = deepest single deque.
  worklist::WorklistStats ws;
  std::uint64_t max_depth = 0;
  for (int b = 0; b < grid; ++b) {
    const StealDeque& d = group.deque(b);
    ws.adds += d.pushes();
    ws.removes += d.pops() + d.steals_suffered();
    max_depth = std::max(max_depth,
                         static_cast<std::uint64_t>(d.high_water()));
  }
  ws.max_size_seen = max_depth;
  ws.steals = steals_total.load(std::memory_order_relaxed);
  ws.steal_attempts = steal_attempts_total.load(std::memory_order_relaxed);
  result.worklist = ws;
  return result;
}

}  // namespace gvc::parallel

#include "parallel/work_stealing.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/node_visit.hpp"
#include "parallel/shared_state.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/greedy.hpp"
#include "vc/reductions.hpp"
#include "worklist/device_broker.hpp"
#include "worklist/steal_deque.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;
using worklist::StealDeque;

/// The all-idle termination protocol over the deque ensemble — the same
/// scheme GlobalWorklist uses for its single queue (see §IV-C): a thief that
/// finds every deque empty registers as waiting; the last waiter re-scans
/// once and, still finding nothing, latches done. Blocks only push while
/// processing (not while waiting), so waiting == grid implies no in-flight
/// pushes.
class StealGroup {
 public:
  StealGroup(Vertex n, int depth_bound, int grid) : deques_() {
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
  const StealDeque& deque(int block) const {
    return *deques_[static_cast<std::size_t>(block)];
  }

  /// Wakes sleeping thieves after a push made work visible.
  void notify() { cv_.notify_one(); }

  void signal_stop() {
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  enum class StealOutcome { kGot, kDone };

  /// Blocking acquisition for an idle block: scan victims round-robin from
  /// `thief + 1`, sleep-retry on a fully empty scan, terminate when every
  /// block is waiting on an empty ensemble.
  StealOutcome steal(int thief, vc::DegreeArray& out,
                     std::uint64_t* attempts) {
    const int n = grid();
    for (;;) {
      if (stop_.load(std::memory_order_acquire) ||
          done_.load(std::memory_order_acquire))
        return StealOutcome::kDone;

      if (scan(thief, out, attempts)) return StealOutcome::kGot;

      int now_waiting = waiting_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (now_waiting == n) {
        if (scan(thief, out, attempts)) {
          waiting_.fetch_sub(1, std::memory_order_acq_rel);
          return StealOutcome::kGot;
        }
        done_.store(true, std::memory_order_release);
        waiting_.fetch_sub(1, std::memory_order_acq_rel);
        cv_.notify_all();
        return StealOutcome::kDone;
      }
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::microseconds(200), [&] {
          return stop_.load(std::memory_order_acquire) ||
                 done_.load(std::memory_order_acquire);
        });
      }
      waiting_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

 private:
  bool scan(int thief, vc::DegreeArray& out, std::uint64_t* attempts) {
    const int n = grid();
    for (int step = 1; step <= n; ++step) {
      // Own deque last: it was already drained by the owner-pop path, but a
      // completed steal may have been pushed back meanwhile.
      const int victim = (thief + step) % n;
      if (deques_[static_cast<std::size_t>(victim)]->empty_approx()) continue;
      ++*attempts;
      if (deques_[static_cast<std::size_t>(victim)]->try_steal_top(out))
        return true;
    }
    return false;
  }

  std::vector<std::unique_ptr<StealDeque>> deques_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<int> waiting_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace

ParallelResult solve_work_stealing(const CsrGraph& g,
                                   const ParallelConfig& config,
                                   vc::SolveControl* control,
                                   SolveWorkspace* workspace,
                                   const StealEnv* env) {
  util::WallTimer timer;
  ParallelResult result;

  const bool mvc = config.problem == vc::Problem::kMvc;

  vc::GreedyResult greedy = vc::greedy_mvc(g);
  result.greedy_upper_bound = greedy.size;

  const BlockLaunch launch = plan_block_launch(
      config, /*pooled=*/false, g.num_vertices(), greedy.size);
  result.plan = launch.plan;
  const int depth_bound = launch.depth_bound;
  const int grid = launch.grid;

  SharedSearch shared(config.problem, config.k, greedy.size,
                      std::move(greedy.cover), control);

  const Vertex n = g.num_vertices();
  StealGroup group(n, depth_bound, grid);

  // Seed: the root goes to block 0's deque; everyone else starts stealing.
  group.deque(0).push_bottom(vc::DegreeArray(g));

  std::atomic<std::uint64_t> steal_attempts_total{0};
  std::atomic<std::uint64_t> steals_total{0};
  if (workspace) workspace->prepare(grid);

  // Cross-device migration (steal tier 2): the neighbors child that would
  // be pushed on the own deque is exported to the broker instead while a
  // remote device is starved — Chase–Lev donation snapshots are already
  // detached, so crossing a device is the same contract as being stolen.
  std::optional<worklist::DeviceBroker::Group> steal_group;
  if (env != nullptr && env->broker != nullptr)
    steal_group.emplace(*env->broker, env->device_id,
                        [&](vc::DegreeArray&& node, vc::ReduceWorkspace& ws) {
                          drain_subtree(g, config, shared, std::move(node),
                                        ws);
                        });
  worklist::DeviceBroker::Group* migrate =
      steal_group.has_value() ? &*steal_group : nullptr;

  // One block loop for both branch-state modes: like the paper's
  // WorkStealing baseline, every branch materializes the neighbors child and
  // publishes it on the own deque, so thieves always take the oldest
  // (shallowest, largest) subtree; the owner continues on the vmax child.
  // config.branch_state is ignored, as in GlobalOnly.
  auto body = [&](device::BlockContext& ctx) {
    const int id = ctx.block_id();
    StealDeque& own = group.deque(id);
    vc::DegreeArray da;
    vc::DegreeArray child;
    vc::ReduceWorkspace local_ws;  // per-block reduce scratch (cold path)
    vc::ReduceWorkspace& ws = workspace ? workspace->block(id) : local_ws;
    NodeBatch nodes(shared);           // batched node accounting (limits)
    device::NodeCounter visited(ctx);  // batched Fig. 5 node counting
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
          std::uint64_t t0 = util::now_ns();
          StealGroup::StealOutcome out = group.steal(id, da, &attempts);
          std::uint64_t elapsed = util::now_ns() - t0;
          if (out == StealGroup::StealOutcome::kDone) {
            ctx.activities().add(Activity::kTerminate, elapsed);
            break;
          }
          ctx.activities().add(Activity::kWorklistRemove, elapsed);
          steals_total.fetch_add(1, std::memory_order_relaxed);
          obs::trace_instant(obs::TraceCat::kWork, "steal", "attempts",
                             static_cast<std::int64_t>(attempts));
        }
        vc::adopt_node(da);  // fresh standalone node (pop or steal)
      }

      Vertex vmax = -1;
      NodeOutcome out =
          process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
      if (out == NodeOutcome::kAbort) {
        group.signal_stop();
        break;
      }
      if (out == NodeOutcome::kFound && !mvc) {
        group.signal_stop();
        break;
      }
      if (out != NodeOutcome::kBranch) {
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
  };

  device::VirtualDevice dev(config.device);
  result.launch = dev.launch(grid, /*cooperative=*/true, body);

  // Settle migrated nodes before harvesting (see solve_hybrid): reclaim
  // and run what nobody imported — unless the solve already stopped — and
  // wait out every remotely running import.
  if (migrate != nullptr) {
    vc::ReduceWorkspace reclaim_ws;
    const bool abandon = shared.aborted() || (!mvc && shared.pvc_found());
    migrate->drain(reclaim_ws, abandon);
  }

  static_cast<vc::SolveResult&>(result) = shared.harvest();
  result.greedy_upper_bound = greedy.size;
  result.seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();

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

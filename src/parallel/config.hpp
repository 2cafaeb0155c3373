#pragma once

// Configuration and result types shared by the GPU-style solvers, and the
// launch frame every block solver runs its block body in.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "device/device_spec.hpp"
#include "device/occupancy.hpp"
#include "device/virtual_device.hpp"
#include "graph/csr.hpp"
#include "parallel/steal_env.hpp"
#include "util/timer.hpp"
#include "vc/branching.hpp"
#include "vc/greedy.hpp"
#include "vc/reductions.hpp"
#include "vc/search.hpp"
#include "vc/sequential.hpp"
#include "vc/solve_types.hpp"
#include "worklist/device_broker.hpp"
#include "worklist/global_worklist.hpp"

namespace gvc::parallel {

/// Reusable cross-job solver scratch. A solve() call allocates per-block
/// reduce workspaces (degree-array-sized vectors) on every invocation; a
/// caller that solves many instances back to back — a SolveService worker,
/// a harness sweep — holds one SolveWorkspace and passes it to every call
/// so those buffers are paid for once and stay warm across jobs. The
/// workspace is NOT thread-safe: one workspace per calling thread. Within
/// one solve() the blocks of the launch index disjoint entries, which is
/// safe because the pool is sized before the grid starts.
class SolveWorkspace {
 public:
  /// Scratch for block `block_id` of the current launch. Valid only between
  /// prepare(grid) and the next prepare().
  vc::ReduceWorkspace& block(int block_id) {
    return blocks_[static_cast<std::size_t>(block_id)];
  }

  /// Grows the per-block pool to `grid` entries (BlockScratch does, before
  /// each launch); buffers of previous jobs are kept (that reuse is the
  /// point).
  void prepare(int grid) {
    if (blocks_.size() < static_cast<std::size_t>(grid))
      blocks_.resize(static_cast<std::size_t>(grid));
  }

  /// Releases per-block scratch beyond `max_blocks`. Long-lived owners
  /// (service workers) call this between jobs so one huge-grid job — e.g.
  /// a cooperative grid_override of thousands of blocks, each holding
  /// |V|-sized buffers — doesn't pin its pool for the owner's lifetime.
  /// The first `max_blocks` entries stay warm for the common resident-grid
  /// sizes.
  void trim(int max_blocks) {
    if (blocks_.size() > static_cast<std::size_t>(max_blocks)) {
      blocks_.resize(static_cast<std::size_t>(max_blocks));
      blocks_.shrink_to_fit();
    }
  }

  std::size_t block_count() const { return blocks_.size(); }

 private:
  std::vector<vc::ReduceWorkspace> blocks_;
};

/// One launch's per-block reduce scratch: the caller's SolveWorkspace, or a
/// temporary one owned here when the caller passed none, prepared for
/// `slots` resident slots. Blocks index it by ctx.slot_id(), so a pooled
/// launch stays resident-sized however large its grid.
class BlockScratch {
 public:
  BlockScratch(SolveWorkspace* caller, int slots)
      : ws_(caller != nullptr ? *caller : own_) {
    ws_.prepare(slots);
  }
  BlockScratch(const BlockScratch&) = delete;
  BlockScratch& operator=(const BlockScratch&) = delete;

  vc::ReduceWorkspace& block(int slot) { return ws_.block(slot); }

 private:
  SolveWorkspace own_;  // used only when the caller passed none
  SolveWorkspace& ws_;
};

struct ParallelConfig {
  vc::Problem problem = vc::Problem::kMvc;
  int k = 0;  ///< PVC bound

  /// Device model the kernel is planned against (§IV-E). For host runs use
  /// a scaled device (see DeviceSpec presets) so the grid fits host threads.
  device::DeviceSpec device = device::DeviceSpec::host_scaled();

  /// Reduction-rule semantics. kIncremental (the default) is the
  /// candidate-driven fast path shared by every solver; the paper's GPU
  /// kernels use the sweep semantics (§IV-D), which the reproduction
  /// harness requests explicitly (harness::Runner pins kParallelSweep for
  /// the parallel methods and kSerial for the Sequential baseline).
  vc::ReduceSemantics semantics = vc::ReduceSemantics::kIncremental;
  vc::RuleSet rules = {};

  // Node/time budgets no longer live here: pass a vc::SolveControl (which
  // bundles Limits with the cancel latch and deadline) to solve(). Keeping
  // execution policy out of the config also keeps it out of the cache key —
  // a complete record is limit-independent, so requests differing only in
  // budgets now share one cache entry.

  /// Branching-vertex selection; kMaxDegree is the paper's rule (§II-B).
  vc::BranchStrategy branch = vc::BranchStrategy::kMaxDegree;
  std::uint64_t branch_seed = 0;  ///< used by BranchStrategy::kRandom

  /// How the depth-first descent carries state across a branch (see
  /// vc::BranchStateMode). kUndoTrail (the default) backtracks by rolling
  /// an undo trail instead of restoring an O(|V|) copy and is bit-identical
  /// to kCopy; the paper-faithful harness pins kCopy (§IV-B's
  /// self-contained nodes). vc::Descent is the one place that reads it.
  /// GlobalOnly has no local descent and WorkStealing publishes every
  /// neighbors child on its deque, so both ignore this. Execution policy only — results are identical by
  /// contract — so like Limits it stays OUT of the result-cache key.
  vc::BranchStateMode branch_state = vc::BranchStateMode::kUndoTrail;

  /// Force a block size in the occupancy plan (0 = let §IV-E choose).
  int block_size_override = 0;

  /// Force the grid size (0 = the plan's resident-grid size). For Hybrid
  /// this is the number of persistent blocks in the termination protocol.
  int grid_override = 0;

  // --- StackOnly ---
  /// Sub-trees start at this tree depth: the grid is 2^start_depth blocks
  /// (the paper evaluates depths 8/12/16 on the full-size card; the scaled
  /// ablation sweeps 4/6/8/10).
  int start_depth = 6;

  // --- Hybrid ---
  /// Global worklist capacity in entries (the paper uses 128K-512K on a
  /// 32 GiB card; scaled defaults keep the same threshold/capacity ratios).
  std::size_t worklist_capacity = 4096;

  /// Donation threshold as a fraction of capacity (paper sweeps 0.25-1.0).
  double worklist_threshold_frac = 0.5;
};

/// The shared-search view of a ParallelConfig (vc/search.hpp): every field
/// the visit and the depth-first loop read, mapped one to one. This is the
/// single place that mapping lives — the Sequential arm, the batch solver
/// and each block solver map once per solve, so a field added to both
/// configs cannot be silently dropped in one path.
inline vc::SequentialConfig sequential_config_of(const ParallelConfig& config) {
  vc::SequentialConfig sc;
  sc.problem = config.problem;
  sc.k = config.k;
  sc.semantics = config.semantics;
  sc.rules = config.rules;
  sc.branch = config.branch;
  sc.branch_seed = config.branch_seed;
  sc.branch_state = config.branch_state;
  return sc;
}

/// What a block solver launches: the §IV-E plan, the grid, and the host
/// threads the grid runs on.
struct BlockLaunch {
  device::LaunchPlan plan;
  int depth_bound = 0;  ///< search stack entries per block
  int grid = 0;         ///< blocks launched
  int threads = 0;      ///< host threads: the whole grid when cooperative,
                        ///< the plan's resident slots when pooled
};

/// Plans a block-solver launch; a block's stack holds
/// vc::descent_depth_bound entries (greedy_size + 2 for MVC, k + 2 for PVC). `pooled` is StackOnly's 2^start_depth
/// blocks drained by the plan's resident slots; otherwise the grid is
/// cooperative: grid_override, or the plan's resident count. Returns
/// nullopt with `*why` set when the config cannot launch; LaunchFrame
/// aborts on exactly these conditions.
std::optional<BlockLaunch> try_plan_block_launch(const ParallelConfig& config,
                                                 bool pooled,
                                                 std::int64_t num_vertices,
                                                 int greedy_size,
                                                 const char** why);

struct ParallelResult : vc::SolveResult {
  device::LaunchPlan plan;
  device::LaunchStats launch;
  worklist::WorklistStats worklist;  ///< meaningful for Hybrid only

  /// Simulated parallel execution time: the per-SM CPU-work makespan of the
  /// launch (LaunchStats::makespan_seconds). For Sequential this equals
  /// `seconds`. The benches report this as the "GPU time" — on a host with
  /// fewer cores than virtual SMs, `seconds` measures total work instead.
  double sim_seconds = 0.0;

  /// GlobalOnly only: number of tree nodes a block had to keep locally
  /// because the worklist was full — the frontier-explosion events of
  /// §IV-A's strawman design. Always 0 for the other methods.
  std::uint64_t overflow_spills = 0;
};

/// The frame StackOnly, Hybrid, GlobalOnly and WorkStealing run their block
/// body in, so each method keeps only the body: where a block's next node
/// comes from. Construction starts the solve's wall clock, runs the greedy
/// bound on the CPU (§II-B: it seeds `best` and bounds the stack, §IV-E),
/// plans the launch (`pooled`: StackOnly's 2^D blocks on the resident
/// slots; otherwise cooperative), builds the shared search, prepares the
/// block scratch and, under a StealEnv, registers the tier-2 migration
/// group. `workspace` and `env` may be null.
class LaunchFrame {
 public:
  LaunchFrame(const graph::CsrGraph& g, const ParallelConfig& config,
              bool pooled, vc::SolveControl* control,
              SolveWorkspace* workspace, const StealEnv* env = nullptr);
  LaunchFrame(const LaunchFrame&) = delete;  // the migration runner holds this
  LaunchFrame& operator=(const LaunchFrame&) = delete;

  const BlockLaunch& launch() const { return launch_; }
  vc::SharedSearch& shared() { return shared_; }

  /// The migration group while a StealEnv is attached, else null.
  worklist::DeviceBroker::Group* migrate() {
    return migrate_.has_value() ? &*migrate_ : nullptr;
  }

  /// The reduce scratch of ctx's resident slot.
  vc::ReduceWorkspace& scratch(const device::BlockContext& ctx) {
    return scratch_.block(ctx.slot_id());
  }

  /// ctx's block of the shared search: its Fig. 6 charges go to the block's
  /// accumulator and its node total to BlockStats::nodes_visited.
  vc::BlockSearch block_search(device::BlockContext& ctx) {
    return vc::BlockSearch(g_, sc_, shared_, scratch(ctx), &ctx.activities(),
                           &ctx.mutable_stats().nodes_visited);
  }

  /// Launches `body` once per block, settles migrated nodes (see run() in
  /// config.cpp) and harvests: fills the result's search fields, plan,
  /// launch stats, greedy bound and both clocks. Call once.
  ParallelResult run(const std::function<void(device::BlockContext&)>& body);

 private:
  const graph::CsrGraph& g_;
  const ParallelConfig& config_;
  const bool pooled_;
  util::WallTimer timer_;
  vc::GreedyResult greedy_;  // its cover moves into shared_
  BlockLaunch launch_;
  vc::SequentialConfig sc_;
  vc::SharedSearch shared_;
  BlockScratch scratch_;
  std::optional<worklist::DeviceBroker::Group> migrate_;
};

}  // namespace gvc::parallel

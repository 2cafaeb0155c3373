#pragma once

// Configuration and result types shared by the two GPU-style solvers.

#include <cstdint>
#include <optional>
#include <vector>

#include "device/device_spec.hpp"
#include "device/occupancy.hpp"
#include "device/virtual_device.hpp"
#include "vc/branching.hpp"
#include "vc/reductions.hpp"
#include "vc/sequential.hpp"
#include "vc/solve_types.hpp"
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

  /// Grows the per-block pool to `grid` entries. Called by each solver
  /// before its launch; buffers of previous jobs are kept (that reuse is
  /// the point).
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
/// nullopt with `*why` set when the config cannot launch. The solvers plan
/// through plan_block_launch, which aborts on exactly these conditions.
std::optional<BlockLaunch> try_plan_block_launch(const ParallelConfig& config,
                                                 bool pooled,
                                                 std::int64_t num_vertices,
                                                 int greedy_size,
                                                 const char** why);
BlockLaunch plan_block_launch(const ParallelConfig& config, bool pooled,
                              std::int64_t num_vertices, int greedy_size);

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

}  // namespace gvc::parallel

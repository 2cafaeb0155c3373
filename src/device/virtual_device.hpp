#pragma once

// Execution substrate: runs a grid of "thread blocks" (host threads) against
// the device model, reproducing the two scheduling regimes the paper's
// kernels rely on:
//
//  * cooperative launch — every block in the grid is resident and runs
//    concurrently for the whole kernel (the persistent-grid Hybrid kernel,
//    whose worklist termination protocol requires all blocks to
//    participate); and
//  * pooled launch — more blocks than resident slots; blocks are dispatched
//    to free slots in id order, exactly how a GPU scheduler drains a grid
//    (the StackOnly kernel with one block per sub-tree).
//
// Each block gets a BlockContext carrying its id, its SM assignment, a
// visited-node counter (the unit of Fig. 5) and an ActivityAccumulator (the
// unit of Fig. 6). LaunchStats aggregates them per SM.

#include <cstdint>
#include <functional>
#include <vector>

#include "device/device_spec.hpp"
#include "util/timer.hpp"

namespace gvc::device {

/// Instrumentation record of one executed block.
struct BlockStats {
  int block_id = -1;
  int sm_id = -1;
  std::uint64_t nodes_visited = 0;
  /// CPU nanoseconds the block's body consumed (util::thread_cpu_ns, the
  /// block makespan clock): the block's share of its SM's cycles,
  /// independent of host scheduling. `activities` is charged on the
  /// monotonic clock instead, so the two are not comparable; they are the
  /// block's settled charges (sampled node charges scaled to its node time).
  std::uint64_t cpu_ns = 0;
  util::ActivityTotals activities;
};

/// Handed to the block body; the block's window onto its instrumentation.
class BlockContext {
 public:
  BlockContext(int block_id, int sm_id, int slot_id = -1)
      : slot_id_(slot_id < 0 ? block_id : slot_id), stats_() {
    stats_.block_id = block_id;
    stats_.sm_id = sm_id;
  }

  int block_id() const { return stats_.block_id; }
  int sm_id() const { return stats_.sm_id; }

  /// The resident slot executing this block: equal to block_id() under a
  /// cooperative launch (every block resident), the slot index in [0,
  /// resident) under a pooled launch. Bodies that pool per-*slot* scratch —
  /// the batch solver runs 10k+ blocks through ≤32 slots — key it on this,
  /// not on block_id(), so the pool stays resident-sized.
  int slot_id() const { return slot_id_; }

  /// Record one visited search-tree node.
  void count_node() { ++stats_.nodes_visited; }

  /// Bulk form: a block's node total, added once when it exits
  /// (vc::NodeBatch hands its count to mutable_stats().nodes_visited).
  void count_nodes(std::uint64_t n) { stats_.nodes_visited += n; }

  std::uint64_t nodes_visited() const { return stats_.nodes_visited; }

  /// Per-activity cycle accounting (wrap work in util::ActivityScope).
  /// Settled into BlockStats::activities when the block exits.
  util::ActivityAccumulator& activities() { return activities_; }

  BlockStats& mutable_stats() { return stats_; }

 private:
  int slot_id_;
  BlockStats stats_;
  util::ActivityAccumulator activities_;
};

/// Aggregated results of one grid launch.
struct LaunchStats {
  int num_sms = 0;
  double wall_seconds = 0.0;
  std::vector<BlockStats> blocks;

  std::uint64_t total_nodes() const;

  /// Tree nodes visited per SM (length num_sms).
  std::vector<double> nodes_per_sm() const;

  /// Fig. 5's metric: per-SM node counts normalized to the across-SM mean.
  /// SMs that received no blocks contribute 0.
  std::vector<double> load_per_sm_normalized() const;

  /// Max over SMs of the summed CPU time of the blocks assigned to it —
  /// the simulated parallel execution time of the launch. This is the
  /// primary "GPU seconds" metric on this substrate: on a host with fewer
  /// cores than virtual SMs, wall time measures total work while this
  /// recovers the parallel shape (see DESIGN.md §2).
  double makespan_seconds() const;

  /// Block load imbalance: max over mean of blocks[].cpu_ns. 1.0 is a
  /// perfectly even launch; 1.0 also when no block recorded CPU time.
  double cpu_imbalance() const;

  /// Sum of all blocks' activity accumulators.
  util::ActivityAccumulator merged_activities() const;

  /// Fig. 6's metric: for each activity, the mean over blocks of that
  /// block's fraction of instrumented time spent in the activity.
  /// Blocks with no instrumented time are skipped.
  std::vector<double> mean_activity_fractions() const;
};

class VirtualDevice {
 public:
  explicit VirtualDevice(DeviceSpec spec);

  const DeviceSpec& spec() const { return spec_; }

  /// Runs `body` for block ids [0, grid_size).
  ///
  /// cooperative=true: one thread per block, all concurrent (required when
  /// blocks synchronize through shared state, e.g. the global worklist
  /// termination protocol). cooperative=false: blocks are drained by
  /// `resident` worker slots in id order; `resident` defaults to the
  /// device's max resident blocks and is clamped to grid_size.
  LaunchStats launch(int grid_size, bool cooperative,
                     const std::function<void(BlockContext&)>& body,
                     int resident = 0) const;

 private:
  DeviceSpec spec_;
};

}  // namespace gvc::device

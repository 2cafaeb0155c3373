#pragma once

// Description of the (virtual) GPU the solvers run on.
//
// The paper evaluates on a Volta V100; this substrate replaces the physical
// card with a resource model carrying exactly the limits §IV-E reasons
// about: SM count, thread/block limits, shared memory per SM and per block,
// and global memory. The occupancy calculator consumes this model, and the
// VirtualDevice executes grids against it.

#include <cstdint>
#include <string>

namespace gvc::device {

struct DeviceSpec {
  std::string name;

  /// Streaming multiprocessors.
  int num_sms = 0;

  /// Hardware limit on threads per block.
  int max_threads_per_block = 0;

  /// Max simultaneously resident threads per SM.
  int max_threads_per_sm = 0;

  /// Hardware limit on resident blocks per SM.
  int max_blocks_per_sm = 0;

  /// Shared memory capacity per SM.
  std::int64_t shared_mem_per_sm_bytes = 0;

  /// Shared memory limit for a single block (≤ per-SM capacity).
  std::int64_t shared_mem_per_block_bytes = 0;

  /// Device global memory available for per-block stacks (total memory
  /// minus a reserve for the CSR graph, worklist, and runtime).
  std::int64_t global_mem_bytes = 0;

  /// Max resident blocks device-wide (num_sms * max_blocks_per_sm).
  std::int64_t max_resident_blocks() const {
    return static_cast<std::int64_t>(num_sms) * max_blocks_per_sm;
  }

  /// Threads needed for 100% occupancy (num_sms * max_threads_per_sm).
  std::int64_t full_occupancy_threads() const {
    return static_cast<std::int64_t>(num_sms) * max_threads_per_sm;
  }

  /// The first inconsistent field (non-positive, or a per-block limit above
  /// its per-SM capacity), or nullptr for a usable spec. The non-aborting
  /// check for specs from untrusted sources.
  const char* invalid_reason() const;

  /// Aborts, naming the field, on any spec invalid_reason() refuses.
  void validate() const;

  // Presets. v100() mirrors the paper's evaluation card; the others exist
  // for the occupancy tests and for running on smaller virtual devices.
  static DeviceSpec v100();
  static DeviceSpec a100();
  /// A small integrated-GPU-class device; useful to observe occupancy
  /// limits kicking in at much smaller graph sizes.
  static DeviceSpec laptop();

  /// A V100 scaled down ~5x in SM count and residency so that a persistent
  /// grid maps onto a host's thread budget while preserving the per-SM
  /// ratios the load-balance experiments measure. This is the default
  /// device for benches run on this substrate (see DESIGN.md §2).
  static DeviceSpec host_scaled();
};

}  // namespace gvc::device

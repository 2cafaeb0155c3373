#pragma once

// The block-size / kernel-variant selection procedure of §IV-E.
//
// Inputs: the device model, the graph size |V| (which fixes both the degree
// array footprint and the useful upper bound on threads per block), and the
// stack depth bound (greedy upper bound for MVC, k for PVC).
//
// Procedure (verbatim from the paper):
//   upper  = min(hw max threads/block, |V|)
//   blocks = min(hw resident blocks,
//                smem-limited blocks,        [shared-memory variant only]
//                global-memory stack-limited blocks)
//   lower  = ceil(full-occupancy threads / blocks)
//   if lower ≤ upper  → pick a power-of-two block size in [lower, upper],
//                        full occupancy achievable
//   else              → block size = upper, reduced occupancy; if the shared
//                        memory constraint caused it, fall back to the
//                        global-memory kernel variant.

#include <cstdint>
#include <optional>
#include <string>

#include "device/device_spec.hpp"

namespace gvc::device {

enum class KernelVariant {
  kSharedMem,  ///< intermediate graph of the current node kept in shared mem
  kGlobalMem,  ///< intermediate graph kept in global memory
};

const char* kernel_variant_name(KernelVariant v);

struct LaunchPlan {
  KernelVariant variant = KernelVariant::kSharedMem;
  int block_size = 0;        ///< threads per block
  int grid_size = 0;         ///< resident blocks launched (persistent grid)
  bool full_occupancy = false;

  /// Diagnostics: the three block-count limits of §IV-E.
  std::int64_t hw_block_limit = 0;
  std::int64_t smem_block_limit = 0;    ///< INT64_MAX for the global variant
  std::int64_t global_mem_block_limit = 0;

  std::string to_string() const;
};

/// Bytes of one degree-array entry for a |V|-vertex graph (the unit of both
/// shared-memory and stack budgeting).
std::int64_t degree_array_bytes(std::int64_t num_vertices);

/// Runs the §IV-E procedure. If `force_block_size` is nonzero it is used
/// verbatim (the block-size ablation bench sweeps it) and only the grid
/// size / variant / occupancy flags are derived.
LaunchPlan plan_launch(const DeviceSpec& spec, std::int64_t num_vertices,
                       int stack_depth, int force_block_size = 0);

/// The non-aborting twin of plan_launch, for untrusted inputs: the plan, or
/// nullopt with `*why` naming the precondition plan_launch aborts on (an
/// invalid spec, a negative input, a forced block size above the hardware
/// limit, or a stack that fits no block in global memory).
std::optional<LaunchPlan> try_plan_launch(const DeviceSpec& spec,
                                          std::int64_t num_vertices,
                                          int stack_depth,
                                          int force_block_size,
                                          const char** why);

}  // namespace gvc::device

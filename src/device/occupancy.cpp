#include "device/occupancy.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace gvc::device {

namespace {

constexpr std::int64_t kUnlimited = std::numeric_limits<std::int64_t>::max();

/// Largest power of two ≤ x (x ≥ 1).
std::int64_t floor_pow2(std::int64_t x) {
  std::int64_t p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

struct VariantLimits {
  std::int64_t hw = 0;
  std::int64_t smem = 0;    // device-wide blocks under the smem constraint
  std::int64_t gmem = 0;
  std::int64_t combined() const { return std::min({hw, smem, gmem}); }
};

VariantLimits block_limits(const DeviceSpec& spec, KernelVariant variant,
                           std::int64_t entry_bytes, int stack_depth) {
  VariantLimits lim;
  lim.hw = spec.max_resident_blocks();
  if (variant == KernelVariant::kSharedMem) {
    if (entry_bytes > spec.shared_mem_per_block_bytes) {
      lim.smem = 0;  // a single block's intermediate graph does not fit
    } else {
      lim.smem = static_cast<std::int64_t>(spec.num_sms) *
                 (spec.shared_mem_per_sm_bytes / entry_bytes);
    }
  } else {
    lim.smem = kUnlimited;
  }
  std::int64_t stack_bytes = entry_bytes * std::max(stack_depth, 1);
  lim.gmem = spec.global_mem_bytes / stack_bytes;
  return lim;
}

/// Resident blocks per SM for a chosen block size under a variant.
std::int64_t blocks_per_sm(const DeviceSpec& spec, KernelVariant variant,
                           std::int64_t entry_bytes, int block_size) {
  std::int64_t by_threads = spec.max_threads_per_sm / block_size;
  std::int64_t by_hw = spec.max_blocks_per_sm;
  std::int64_t by_smem =
      variant == KernelVariant::kSharedMem
          ? (entry_bytes <= spec.shared_mem_per_block_bytes
                 ? spec.shared_mem_per_sm_bytes / entry_bytes
                 : 0)
          : kUnlimited;
  return std::min({by_threads, by_hw, by_smem});
}

LaunchPlan plan_variant(const DeviceSpec& spec, KernelVariant variant,
                        std::int64_t num_vertices, int stack_depth,
                        int force_block_size) {
  const std::int64_t entry = degree_array_bytes(num_vertices);
  LaunchPlan plan;
  plan.variant = variant;

  VariantLimits lim = block_limits(spec, variant, entry, stack_depth);
  plan.hw_block_limit = lim.hw;
  plan.smem_block_limit = lim.smem;
  plan.global_mem_block_limit = lim.gmem;

  if (lim.combined() <= 0) return plan;  // infeasible: block_size stays 0

  // Upper limit: hardware cap and |V| — more threads than vertices do no
  // useful work on a degree array (§IV-E).
  std::int64_t upper =
      std::min<std::int64_t>(spec.max_threads_per_block,
                             std::max<std::int64_t>(num_vertices, 1));
  // Lower limit: threads needed for full occupancy over the max block count.
  std::int64_t lower =
      (spec.full_occupancy_threads() + lim.combined() - 1) / lim.combined();

  std::int64_t block_size;
  if (force_block_size > 0) {
    block_size = force_block_size;
  } else if (lower <= upper) {
    // A power of two inside [lower, upper]; prefer the largest (fewer,
    // larger blocks — the regime the paper targets for big graphs).
    std::int64_t candidate = floor_pow2(upper);
    block_size = candidate >= lower ? candidate : upper;
  } else {
    block_size = upper;  // cannot reach full occupancy
  }
  block_size = std::min<std::int64_t>(block_size, spec.max_threads_per_block);

  std::int64_t per_sm = blocks_per_sm(spec, variant, entry, static_cast<int>(block_size));
  if (per_sm <= 0) return plan;
  std::int64_t grid = std::min(per_sm * spec.num_sms, lim.gmem);
  grid = std::min(grid, lim.hw);

  plan.block_size = static_cast<int>(block_size);
  plan.grid_size = static_cast<int>(std::min<std::int64_t>(
      grid, std::numeric_limits<int>::max()));
  plan.full_occupancy =
      per_sm * block_size >= spec.max_threads_per_sm &&
      grid == per_sm * spec.num_sms;
  return plan;
}

}  // namespace

const char* kernel_variant_name(KernelVariant v) {
  return v == KernelVariant::kSharedMem ? "shared-mem" : "global-mem";
}

std::string LaunchPlan::to_string() const {
  return util::format(
      "%s kernel, block=%d threads, grid=%d blocks, %s occupancy "
      "(limits: hw=%lld smem=%lld gmem=%lld)",
      kernel_variant_name(variant), block_size, grid_size,
      full_occupancy ? "full" : "reduced",
      static_cast<long long>(hw_block_limit),
      smem_block_limit == std::numeric_limits<std::int64_t>::max()
          ? -1LL
          : static_cast<long long>(smem_block_limit),
      static_cast<long long>(global_mem_block_limit));
}

std::int64_t degree_array_bytes(std::int64_t num_vertices) {
  // |V| 32-bit degrees plus the |S| and |E| counters.
  return num_vertices * 4 + 16;
}

std::optional<LaunchPlan> try_plan_launch(const DeviceSpec& spec,
                                          std::int64_t num_vertices,
                                          int stack_depth,
                                          int force_block_size,
                                          const char** why) {
  const auto refuse = [why](const char* reason) -> std::optional<LaunchPlan> {
    *why = reason;
    return std::nullopt;
  };
  if (const char* invalid = spec.invalid_reason()) return refuse(invalid);
  if (num_vertices < 0 || stack_depth < 0 || force_block_size < 0)
    return refuse("negative plan input");
  if (force_block_size > spec.max_threads_per_block)
    return refuse("forced block size exceeds hardware limit");

  LaunchPlan shared = plan_variant(spec, KernelVariant::kSharedMem,
                                   num_vertices, stack_depth, force_block_size);
  if (shared.block_size > 0 && shared.full_occupancy) return shared;

  // §IV-E fallback: when the shared-memory constraint prevents full
  // occupancy, relax it by keeping the intermediate graph in global memory.
  LaunchPlan global = plan_variant(spec, KernelVariant::kGlobalMem,
                                   num_vertices, stack_depth, force_block_size);
  if (shared.block_size == 0) {
    if (global.block_size == 0)
      return refuse("graph too large for device global memory");
    return global;
  }
  if (global.full_occupancy || global.grid_size > shared.grid_size)
    return global;
  return shared;  // neither reaches full occupancy; prefer fast shared mem
}

LaunchPlan plan_launch(const DeviceSpec& spec, std::int64_t num_vertices,
                       int stack_depth, int force_block_size) {
  const char* why = nullptr;
  const std::optional<LaunchPlan> plan =
      try_plan_launch(spec, num_vertices, stack_depth, force_block_size, &why);
  GVC_CHECK_MSG(plan.has_value(), why);
  return *plan;
}

}  // namespace gvc::device

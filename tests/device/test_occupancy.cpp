#include "device/occupancy.hpp"

#include <gtest/gtest.h>

namespace gvc::device {
namespace {

TEST(Occupancy, DegreeArrayBytes) {
  EXPECT_EQ(degree_array_bytes(0), 16);
  EXPECT_EQ(degree_array_bytes(1000), 4016);
}

TEST(Occupancy, SmallGraphUsesSharedMemory) {
  // A 300-vertex degree array is ~1.2 KB; trivially fits V100 shared memory.
  LaunchPlan p = plan_launch(DeviceSpec::v100(), 300, 150);
  EXPECT_EQ(p.variant, KernelVariant::kSharedMem);
  EXPECT_GT(p.block_size, 0);
  EXPECT_GT(p.grid_size, 0);
  EXPECT_TRUE(p.full_occupancy);
}

TEST(Occupancy, HugeGraphFallsBackToGlobalMemory) {
  // 100K vertices -> 400 KB per intermediate graph: beyond V100 shared
  // memory for even one block; §IV-E's fallback must select global memory.
  LaunchPlan p = plan_launch(DeviceSpec::v100(), 100000, 500);
  EXPECT_EQ(p.variant, KernelVariant::kGlobalMem);
  EXPECT_GT(p.block_size, 0);
}

TEST(Occupancy, SmemPressureTriggersFallbackBeforeHardLimit) {
  // 40 KB intermediate graph fits a 96 KB block but only 2 fit per SM:
  // shared variant caps residency at 2 blocks/SM -> occupancy needs 1024
  // threads/block; |V| = 10240 allows it. Check the plan is sane either way.
  LaunchPlan p = plan_launch(DeviceSpec::v100(), 10240, 300);
  EXPECT_GT(p.block_size, 0);
  EXPECT_TRUE(p.full_occupancy);
}

TEST(Occupancy, BlockSizeNeverExceedsVertexCountBound) {
  // |V| = 37: no point in more threads than vertices (§IV-E).
  LaunchPlan p = plan_launch(DeviceSpec::v100(), 37, 30);
  EXPECT_LE(p.block_size, 37);
}

TEST(Occupancy, ForcedBlockSizeIsRespected) {
  LaunchPlan p = plan_launch(DeviceSpec::v100(), 1000, 200, /*force=*/128);
  EXPECT_EQ(p.block_size, 128);
}

TEST(OccupancyDeathTest, ForcedBlockSizeAboveHardwareLimit) {
  EXPECT_DEATH(plan_launch(DeviceSpec::v100(), 1000, 200, 2048),
               "hardware limit");
}

TEST(Occupancy, GlobalMemoryLimitCapsGrid) {
  // Tiny-memory device: stacks limit the resident blocks.
  DeviceSpec d = DeviceSpec::laptop();
  d.global_mem_bytes = 1 * 1024 * 1024;  // 1 MiB for all stacks
  // 5000-vertex entries (~20 KB) with depth 10 -> 200 KB per stack -> 5 blocks.
  LaunchPlan p = plan_launch(d, 5000, 10);
  EXPECT_LE(p.grid_size, 5);
  EXPECT_GT(p.grid_size, 0);
  EXPECT_FALSE(p.full_occupancy);
}

TEST(OccupancyDeathTest, ImpossiblyLargeGraphAborts) {
  DeviceSpec d = DeviceSpec::laptop();
  d.global_mem_bytes = 1024;  // 1 KiB
  EXPECT_DEATH(plan_launch(d, 1 << 20, 100), "too large");
}

class OccupancyPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    SizesAndDepths, OccupancyPropertyTest,
    ::testing::Combine(::testing::Values(16, 64, 300, 1000, 5000, 25000,
                                         100000),
                       ::testing::Values(5, 50, 500)));

TEST_P(OccupancyPropertyTest, PlanInvariantsHoldOnAllDevices) {
  auto [n, depth] = GetParam();
  for (const DeviceSpec& spec :
       {DeviceSpec::v100(), DeviceSpec::a100(), DeviceSpec::laptop(),
        DeviceSpec::host_scaled()}) {
    LaunchPlan p = plan_launch(spec, n, depth);
    // Feasibility basics.
    ASSERT_GT(p.block_size, 0);
    ASSERT_GT(p.grid_size, 0);
    EXPECT_LE(p.block_size, spec.max_threads_per_block);
    EXPECT_LE(p.grid_size, spec.max_resident_blocks());
    // Global memory: all stacks must fit.
    std::int64_t stack_bytes = degree_array_bytes(n) * depth;
    EXPECT_LE(static_cast<std::int64_t>(p.grid_size) * stack_bytes,
              spec.global_mem_bytes);
    // Shared-memory variant: per-block graph fits the block limit and
    // per-SM packing respects capacity.
    if (p.variant == KernelVariant::kSharedMem) {
      EXPECT_LE(degree_array_bytes(n), spec.shared_mem_per_block_bytes);
      std::int64_t blocks_per_sm =
          (p.grid_size + spec.num_sms - 1) / spec.num_sms;
      EXPECT_LE(blocks_per_sm * degree_array_bytes(n),
                spec.shared_mem_per_sm_bytes);
    }
    // Full occupancy claim must be backed by enough threads.
    if (p.full_occupancy) {
      EXPECT_GE(static_cast<std::int64_t>(p.grid_size) * p.block_size,
                spec.full_occupancy_threads());
    }
    // A deeper stack never plans a larger grid (parallel::check_solve
    // relies on it to skip the greedy pass).
    const char* why = nullptr;
    const auto deeper = try_plan_launch(spec, n, depth * 10, 0, &why);
    if (deeper) EXPECT_LE(deeper->grid_size, p.grid_size);
  }
}

TEST(Occupancy, PlanToStringMentionsVariant) {
  LaunchPlan p = plan_launch(DeviceSpec::v100(), 300, 150);
  EXPECT_NE(p.to_string().find("shared-mem"), std::string::npos);
}

}  // namespace
}  // namespace gvc::device

#include "device/virtual_device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

namespace gvc::device {
namespace {

TEST(VirtualDevice, PooledRunsEveryBlockExactlyOnce) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  std::atomic<int> runs{0};
  std::mutex mu;
  std::set<int> seen;
  auto stats = dev.launch(100, /*cooperative=*/false, [&](BlockContext& ctx) {
    runs.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(ctx.block_id());
  });
  EXPECT_EQ(runs.load(), 100);
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(stats.blocks.size(), 100u);
  for (const auto& b : stats.blocks) {
    EXPECT_GE(b.sm_id, 0);
    EXPECT_LT(b.sm_id, dev.spec().num_sms);
  }
}

TEST(VirtualDevice, CooperativeBlocksRunConcurrently) {
  // All blocks must be alive at once: make each wait until every other has
  // started — impossible under a pooled scheduler with fewer slots.
  constexpr int kGrid = 8;
  VirtualDevice dev(DeviceSpec::host_scaled());
  std::atomic<int> started{0};
  auto stats = dev.launch(kGrid, /*cooperative=*/true, [&](BlockContext&) {
    started.fetch_add(1);
    while (started.load() < kGrid) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), kGrid);
  EXPECT_EQ(stats.blocks.size(), static_cast<std::size_t>(kGrid));
}

TEST(VirtualDevice, NodeCountsAggregatePerSm) {
  DeviceSpec spec = DeviceSpec::host_scaled();  // 16 SMs
  VirtualDevice dev(spec);
  // Cooperative: block b -> SM b%16; give block b exactly b nodes.
  auto stats = dev.launch(32, true, [&](BlockContext& ctx) {
    for (int i = 0; i < ctx.block_id(); ++i) ctx.count_node();
  });
  EXPECT_EQ(stats.total_nodes(), 31u * 32u / 2u);
  auto per_sm = stats.nodes_per_sm();
  ASSERT_EQ(per_sm.size(), 16u);
  // SM s receives blocks s and s+16: s + (s+16) nodes.
  for (int s = 0; s < 16; ++s)
    EXPECT_DOUBLE_EQ(per_sm[static_cast<std::size_t>(s)], 2.0 * s + 16.0);
}

TEST(VirtualDevice, NormalizedLoadAveragesToOne) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  auto stats = dev.launch(16, true, [&](BlockContext& ctx) {
    for (int i = 0; i <= ctx.block_id(); ++i) ctx.count_node();
  });
  auto load = stats.load_per_sm_normalized();
  double sum = 0;
  for (double x : load) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(load.size()), 1.0, 1e-9);
}

TEST(VirtualDevice, ActivityFractionsAreADistribution) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  auto stats = dev.launch(4, false, [&](BlockContext& ctx) {
    ctx.activities().add(util::Activity::kDegreeOneRule, 300);
    ctx.activities().add(util::Activity::kStackPush, 100);
  });
  auto frac = stats.mean_activity_fractions();
  double sum = 0;
  for (double f : frac) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(frac[static_cast<int>(util::Activity::kDegreeOneRule)], 0.75,
              1e-9);
  EXPECT_NEAR(frac[static_cast<int>(util::Activity::kStackPush)], 0.25, 1e-9);
}

TEST(VirtualDevice, MakespanCountsCpuWorkNotSleep) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  // Busy blocks accrue CPU makespan; a sleeping block accrues ~none — the
  // property that makes makespan a faithful simulated-parallel-time metric.
  volatile double sink = 0;
  auto busy = dev.launch(2, false, [&](BlockContext&) {
    for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
  });
  auto idle = dev.launch(2, false, [&](BlockContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  EXPECT_GT(busy.makespan_seconds(), 0.0);
  EXPECT_GT(busy.wall_seconds, 0.0);
  EXPECT_LT(idle.makespan_seconds(), busy.makespan_seconds() + 0.005);
  EXPECT_GT(idle.wall_seconds, 0.009);
}

TEST(VirtualDevice, ResidentLimitRespectsConcurrency) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  std::atomic<int> live{0}, peak{0};
  dev.launch(
      40, false,
      [&](BlockContext&) {
        int now = live.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        live.fetch_sub(1);
      },
      /*resident=*/3);
  EXPECT_LE(peak.load(), 3);
}

TEST(VirtualDeviceDeathTest, RejectsEmptyGrid) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  EXPECT_DEATH(dev.launch(0, false, [](BlockContext&) {}), "GVC_CHECK");
}

}  // namespace
}  // namespace gvc::device

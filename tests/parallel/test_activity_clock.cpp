// Fig. 6 activity accounting invariant for the four block solvers. Every
// activity charge goes through one monotonic clock (util::now_ns) and the
// scopes of one block are disjoint intervals inside the launch, so a block's
// summed activity time can never exceed the launch's wall time. A nested or
// double-charged scope breaks that bound, and so would sampled node charges
// scaled past the block's own elapsed time.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "harness/catalog.hpp"
#include "parallel/solver.hpp"
#include "util/timer.hpp"

namespace gvc::parallel {
namespace {

using util::Activity;

class ActivityClockTest : public ::testing::TestWithParam<Method> {};
INSTANTIATE_TEST_SUITE_P(BlockMethods, ActivityClockTest,
                         ::testing::Values(Method::kStackOnly, Method::kHybrid,
                                           Method::kGlobalOnly,
                                           Method::kWorkStealing),
                         [](const auto& info) {
                           return method_name(info.param);
                         });

TEST_P(ActivityClockTest, BlockActivitiesFitInsideLaunchWallTime) {
  // An instance long enough that some block is busy or charged-waiting for
  // most of the launch (max block share ~0.8-0.97 here), so a doubled
  // reduce charge pushes it past the launch's wall time.
  const std::vector<harness::Instance> catalog =
      harness::paper_catalog(harness::Scale::kSmoke);
  const harness::Instance& inst =
      harness::find_instance(catalog, "p_hat_300_3");
  ParallelConfig config;
  config.device = device::DeviceSpec::host_scaled();
  const ParallelResult r = solve(inst.graph(), GetParam(), config);
  ASSERT_EQ(r.outcome, vc::Outcome::kOptimal);
  ASSERT_FALSE(r.launch.blocks.empty());

  const double wall_ns = r.launch.wall_seconds * 1e9;
  for (const device::BlockStats& b : r.launch.blocks)
    EXPECT_LE(static_cast<double>(b.activities.total_ns()), wall_ns)
        << "block " << b.block_id;

  const util::ActivityAccumulator all = r.launch.merged_activities();
  EXPECT_GT(all.ns(Activity::kDegreeOneRule) +
                all.ns(Activity::kDegreeTwoTriangleRule) +
                all.ns(Activity::kHighDegreeRule),
            0u);
  EXPECT_GT(all.ns(Activity::kFindMaxDegree), 0u);
}

TEST_P(ActivityClockTest, ShortBlocksKeepTheirNodeCharges) {
  // A tree of a few dozen nodes over four blocks, so some blocks visit
  // fewer nodes than the sample stride (StackOnly's pooled grid has 64
  // blocks whatever the override). A block's first node is always sampled,
  // so each block that visited a node keeps a reduce, find-max or branch
  // charge, and scaling never pushes a block past the launch. How the
  // cooperative methods split the tree depends on the host's scheduling,
  // so the solve repeats until a short block has been seen.
  const graph::CsrGraph g = graph::gnp(30, 0.5, 7);
  ParallelConfig config;
  config.device = device::DeviceSpec::host_scaled();
  config.grid_override = 4;
  bool short_block = false;
  for (int run = 0; run < 20 && !short_block; ++run) {
    const ParallelResult r = solve(g, GetParam(), config);
    ASSERT_EQ(r.outcome, vc::Outcome::kOptimal);
    const double wall_ns = r.launch.wall_seconds * 1e9;
    for (const device::BlockStats& b : r.launch.blocks) {
      const util::ActivityTotals& a = b.activities;
      EXPECT_LE(static_cast<double>(a.total_ns()), wall_ns)
          << "block " << b.block_id;
      if (b.nodes_visited == 0) continue;
      short_block |=
          b.nodes_visited < util::ActivityAccumulator::kSampleStride;
      EXPECT_GT(a.ns(Activity::kDegreeOneRule) +
                    a.ns(Activity::kDegreeTwoTriangleRule) +
                    a.ns(Activity::kHighDegreeRule) +
                    a.ns(Activity::kFindMaxDegree) +
                    a.ns(Activity::kRemoveMaxVertex) +
                    a.ns(Activity::kRemoveNeighbors),
                0u)
          << "block " << b.block_id << " visited " << b.nodes_visited;
    }
  }
  EXPECT_TRUE(short_block);
}

}  // namespace
}  // namespace gvc::parallel

#include "parallel/work_stealing.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/oracle.hpp"
#include "vc/sequential.hpp"

namespace gvc::parallel {
namespace {

ParallelConfig base_config(int grid = 8) {
  ParallelConfig c;
  c.device = device::DeviceSpec::host_scaled();
  c.grid_override = grid;
  return c;
}

TEST(WorkStealing, MatchesOracleOnFixtures) {
  for (const auto& g :
       {graph::cycle(9), graph::petersen(), graph::complete(7),
        graph::complete_bipartite(3, 8), graph::star(12),
        graph::grid2d(3, 4)}) {
    ParallelResult r = solve_work_stealing(g, base_config());
    EXPECT_EQ(r.best_size, vc::oracle_mvc_size(g));
    EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
  }
}

TEST(WorkStealing, EdgelessGraphSolvesToZero) {
  ParallelResult r =
      solve_work_stealing(graph::empty_graph(20), base_config());
  EXPECT_EQ(r.best_size, 0);
  EXPECT_TRUE(r.cover.empty());
}

TEST(WorkStealing, MatchesSequentialOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto g = graph::gnp(40, 0.2, seed * 11 + 3);
    vc::SequentialConfig sc;
    int expect = vc::solve_sequential(g, sc).best_size;
    EXPECT_EQ(solve_work_stealing(g, base_config()).best_size, expect)
        << seed;
  }
}

class WorkStealingGridTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, WorkStealingGridTest,
                         ::testing::Values(1, 2, 4, 12));

TEST_P(WorkStealingGridTest, OptimumInvariantUnderGridSize) {
  auto g = graph::complement(graph::p_hat(28, 0.35, 0.85, 13));
  int opt = vc::oracle_mvc_size(g);
  ParallelResult r = solve_work_stealing(g, base_config(GetParam()));
  EXPECT_EQ(r.best_size, opt) << "grid=" << GetParam();
  EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
}

TEST(WorkStealing, StealsAndCrossBlockWorkCoincide) {
  // Only block 0 holds the root, so a non-root block visiting any node and
  // a successful steal imply each other. (Whether steals actually occur is
  // up to the host scheduler: on a single hardware thread block 0 can drain
  // the whole tree inside one timeslice. The rules are switched off to make
  // the tree big enough that steals are the overwhelmingly likely outcome,
  // but the invariant, not the likelihood, is what's asserted.)
  auto g = graph::watts_strogatz(80, 6, 0.2, 7);
  ParallelResult r = solve_work_stealing(g, base_config(4));
  bool others_worked = false;
  for (const auto& b : r.launch.blocks)
    if (b.block_id != 0 && b.nodes_visited > 0) others_worked = true;
  EXPECT_EQ(others_worked, r.worklist.steals > 0);
  EXPECT_GE(r.worklist.steal_attempts, r.worklist.steals);
}

TEST(WorkStealing, SingleBlockNeverSteals) {
  auto g = graph::gnp(30, 0.2, 23);
  ParallelResult r = solve_work_stealing(g, base_config(1));
  EXPECT_EQ(r.worklist.steals, 0u);
}

TEST(WorkStealing, EveryPushIsConsumed) {
  // MVC exhausts the tree: all pushed nodes (including the seeded root) are
  // either popped by the owner or stolen, so adds == removes at drain.
  auto g = graph::complement(graph::p_hat(26, 0.3, 0.8, 29));
  ParallelResult r = solve_work_stealing(g, base_config(4));
  EXPECT_EQ(r.worklist.adds, r.worklist.removes);
  EXPECT_GT(r.worklist.adds, 0u);
}

TEST(WorkStealing, PvcThreshold) {
  auto g = graph::complement(graph::p_hat(24, 0.3, 0.8, 17));
  vc::SequentialConfig sc;
  int min = vc::solve_sequential(g, sc).best_size;

  ParallelConfig c = base_config();
  c.problem = vc::Problem::kPvc;

  c.k = min;
  ParallelResult at = solve_work_stealing(g, c);
  EXPECT_TRUE(at.has_cover());
  EXPECT_LE(at.best_size, min);
  EXPECT_TRUE(graph::is_vertex_cover(g, at.cover));

  c.k = min - 1;
  EXPECT_FALSE(solve_work_stealing(g, c).has_cover());

  c.k = min + 1;
  EXPECT_TRUE(solve_work_stealing(g, c).has_cover());
}

TEST(WorkStealing, NodeLimitAborts) {
  auto g = graph::complement(graph::p_hat(40, 0.3, 0.9, 31));
  ParallelConfig c = base_config(4);
  vc::SolveControl control;
  control.limits.max_tree_nodes = 5;
  ParallelResult r = solve_work_stealing(g, c, &control);
  EXPECT_EQ(r.outcome, vc::Outcome::kFeasible);
  EXPECT_TRUE(r.limit_hit());
  EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
}

TEST(WorkStealing, RepeatedRunsAgree) {
  auto g = graph::complement(graph::p_hat(32, 0.3, 0.8, 43));
  int first = solve_work_stealing(g, base_config()).best_size;
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(solve_work_stealing(g, base_config()).best_size, first);
}

TEST(WorkStealing, NodeCountMatchesLaunchStats) {
  auto g = graph::complement(graph::p_hat(26, 0.3, 0.8, 37));
  ParallelResult r = solve_work_stealing(g, base_config(4));
  EXPECT_EQ(r.launch.total_nodes(), r.tree_nodes);
  EXPECT_EQ(r.launch.blocks.size(), 4u);
}

/// One-SM, one-resident-block device: the launch degenerates to a single
/// thread executing block 0, making node counts exact and reproducible.
ParallelConfig serialized_config() {
  ParallelConfig c;
  c.device = device::DeviceSpec::host_scaled();
  c.device.num_sms = 1;
  c.device.max_blocks_per_sm = 1;
  c.grid_override = 1;
  return c;
}

TEST(WorkStealing, BranchStateModesWalkTheSameTree) {
  // WorkStealing publishes every neighbors child on its deque whatever the
  // branch-state mode, so on the serialized device kCopy and kUndoTrail
  // must visit the same tree and move the same nodes through the deque.
  for (const auto& g :
       {graph::complement(graph::p_hat(28, 0.35, 0.85, 13)),
        graph::watts_strogatz(60, 4, 0.2, 9)}) {
    ParallelConfig copy = serialized_config();
    copy.branch_state = vc::BranchStateMode::kCopy;
    ParallelConfig trail = serialized_config();
    trail.branch_state = vc::BranchStateMode::kUndoTrail;

    ParallelResult a = solve_work_stealing(g, copy);
    ParallelResult b = solve_work_stealing(g, trail);
    EXPECT_EQ(a.best_size, b.best_size);
    EXPECT_EQ(a.tree_nodes, b.tree_nodes) << "tree shape diverged";
    EXPECT_EQ(a.worklist.adds, b.worklist.adds);
    EXPECT_EQ(a.worklist.removes, b.worklist.removes);
    EXPECT_EQ(a.cover, b.cover);
  }
}

TEST(WorkStealingDeathTest, PvcRequiresK) {
  ParallelConfig c = base_config();
  c.problem = vc::Problem::kPvc;
  c.k = 0;
  EXPECT_DEATH(solve_work_stealing(graph::path(4), c), "k > 0");
}

}  // namespace
}  // namespace gvc::parallel

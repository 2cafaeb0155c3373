#include "parallel/stack_only.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/oracle.hpp"
#include "vc/sequential.hpp"

namespace gvc::parallel {
namespace {

ParallelConfig base_config() {
  ParallelConfig c;
  c.device = device::DeviceSpec::host_scaled();
  c.start_depth = 4;
  return c;
}

TEST(StackOnly, MatchesOracleOnFixtures) {
  for (const auto& g :
       {graph::cycle(9), graph::petersen(), graph::complete(7),
        graph::complete_bipartite(3, 8), graph::grid2d(3, 4)}) {
    ParallelResult r = solve_stack_only(g, base_config());
    EXPECT_EQ(r.best_size, vc::oracle_mvc_size(g));
    EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
    EXPECT_EQ(static_cast<int>(r.cover.size()), r.best_size);
  }
}

class StackOnlyDepthTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Depths, StackOnlyDepthTest,
                         ::testing::Values(0, 1, 2, 4, 6, 8));

TEST_P(StackOnlyDepthTest, OptimumInvariantUnderStartDepth) {
  auto g = graph::complement(graph::p_hat(28, 0.35, 0.85, 11));
  int opt = vc::oracle_mvc_size(g);
  ParallelConfig c = base_config();
  c.start_depth = GetParam();
  ParallelResult r = solve_stack_only(g, c);
  EXPECT_EQ(r.best_size, opt) << "depth=" << GetParam();
  EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
}

TEST(StackOnly, MatchesSequentialOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto g = graph::gnp(40, 0.2, seed * 7 + 1);
    vc::SequentialConfig sc;
    int expect = vc::solve_sequential(g, sc).best_size;
    EXPECT_EQ(solve_stack_only(g, base_config()).best_size, expect) << seed;
  }
}

TEST(StackOnly, PvcThreshold) {
  auto g = graph::complement(graph::p_hat(24, 0.3, 0.8, 3));
  vc::SequentialConfig sc;
  int min = vc::solve_sequential(g, sc).best_size;

  ParallelConfig c = base_config();
  c.problem = vc::Problem::kPvc;

  c.k = min;
  ParallelResult at = solve_stack_only(g, c);
  EXPECT_TRUE(at.has_cover());
  EXPECT_LE(at.best_size, min);
  EXPECT_TRUE(graph::is_vertex_cover(g, at.cover));

  c.k = min - 1;
  ParallelResult below = solve_stack_only(g, c);
  EXPECT_FALSE(below.has_cover());
  EXPECT_EQ(below.outcome, vc::Outcome::kInfeasible);

  c.k = min + 1;
  ParallelResult above = solve_stack_only(g, c);
  EXPECT_TRUE(above.has_cover());
  EXPECT_LE(above.best_size, min + 1);
}

TEST(StackOnly, DeeperStartsCauseMoreDescentWork) {
  // Every block replays its descent from the root, so for a fixed instance
  // the grid-wide node count grows with the start depth (§III-A's
  // redundancy overhead), as long as the tree actually extends that deep.
  auto g = graph::complement(graph::p_hat(30, 0.25, 0.75, 5));
  ParallelConfig shallow = base_config();
  shallow.start_depth = 2;
  ParallelConfig deep = base_config();
  deep.start_depth = 8;
  ParallelResult a = solve_stack_only(g, shallow);
  ParallelResult b = solve_stack_only(g, deep);
  EXPECT_EQ(a.best_size, b.best_size);
  EXPECT_GT(b.tree_nodes, a.tree_nodes);
}

TEST(StackOnly, NodeLimitAborts) {
  auto g = graph::complement(graph::p_hat(40, 0.3, 0.9, 6));
  ParallelConfig c = base_config();
  vc::SolveControl control;
  control.limits.max_tree_nodes = 5;
  ParallelResult r = solve_stack_only(g, c, &control);
  EXPECT_EQ(r.outcome, vc::Outcome::kFeasible);  // MVC: cover in hand
  EXPECT_TRUE(r.limit_hit());
  EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));  // greedy fallback
}

TEST(StackOnly, LaunchStatsPopulated) {
  auto g = graph::complement(graph::p_hat(24, 0.3, 0.8, 7));
  ParallelConfig c = base_config();
  ParallelResult r = solve_stack_only(g, c);
  EXPECT_EQ(r.launch.blocks.size(), 1u << c.start_depth);
  EXPECT_EQ(r.launch.total_nodes(), r.tree_nodes);
  EXPECT_GT(r.plan.block_size, 0);
}

TEST(StackOnly, WorkspacePoolIsResidentSized) {
  // Scratch is keyed on the resident slot, not the block: 1024 blocks on
  // one slot share one workspace, and the serialized tree is unchanged.
  auto g = graph::complement(graph::p_hat(30, 0.25, 0.75, 5));
  ParallelConfig c = base_config();
  c.device.num_sms = 1;
  c.device.max_blocks_per_sm = 1;
  c.start_depth = 10;
  SolveWorkspace ws;
  ParallelResult pooled = solve_stack_only(g, c, nullptr, &ws);
  ParallelResult fresh = solve_stack_only(g, c);
  ASSERT_EQ(pooled.plan.grid_size, 1);
  EXPECT_EQ(pooled.launch.blocks.size(), 1u << c.start_depth);
  EXPECT_EQ(ws.block_count(), 1u);
  EXPECT_EQ(pooled.best_size, fresh.best_size);
  EXPECT_EQ(pooled.tree_nodes, fresh.tree_nodes);
}

TEST(StackOnlyDeathTest, PvcRequiresK) {
  ParallelConfig c = base_config();
  c.problem = vc::Problem::kPvc;
  c.k = 0;
  EXPECT_DEATH(solve_stack_only(graph::path(4), c), "k > 0");
}

}  // namespace
}  // namespace gvc::parallel

#include "harness/tree_stats.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/sequential.hpp"

namespace gvc::harness {
namespace {

TEST(Gini, EdgeCases) {
  EXPECT_DOUBLE_EQ(gini_coefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient({0.0, 0.0}), 0.0);
}

TEST(Gini, UniformIsZero) {
  EXPECT_NEAR(gini_coefficient({3, 3, 3, 3}), 0.0, 1e-12);
}

TEST(Gini, ExtremeConcentrationApproachesOne) {
  std::vector<double> xs(100, 0.0);
  xs[0] = 1000.0;
  EXPECT_GT(gini_coefficient(xs), 0.98);
}

TEST(Gini, KnownTwoPointValue) {
  // {0, 1}: G = 1/2 exactly.
  EXPECT_NEAR(gini_coefficient({0.0, 1.0}), 0.5, 1e-12);
}

TEST(Gini, ScaleInvariant) {
  std::vector<double> a = {1, 2, 3, 4, 10};
  std::vector<double> b;
  for (double x : a) b.push_back(x * 37.0);
  EXPECT_NEAR(gini_coefficient(a), gini_coefficient(b), 1e-12);
}

TEST(TreeShape, TotalNodesMatchSequentialSolver) {
  // The analyzer replays the Sequential traversal; node counts must agree
  // exactly — this pins the replay to Fig. 1's semantics.
  std::vector<graph::CsrGraph> graphs = {
      graph::complement(graph::p_hat(24, 0.3, 0.8, 3)),
      graph::gnp(32, 0.15, 5),
      graph::watts_strogatz(30, 4, 0.2, 7),
  };
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    TreeShapeOptions opt;
    TreeShape shape = analyze_tree_shape(graphs[i], opt);
    vc::SequentialConfig sc;
    vc::SolveResult r = vc::solve_sequential(graphs[i], sc);
    EXPECT_EQ(shape.total_nodes, r.tree_nodes) << "family " << i;
    EXPECT_EQ(shape.best_size, r.best_size) << "family " << i;
  }
}

TEST(TreeShape, DepthHistogramSumsToTotal) {
  auto g = graph::gnp(30, 0.2, 11);
  TreeShape shape = analyze_tree_shape(g);
  std::uint64_t sum = std::accumulate(shape.nodes_per_depth.begin(),
                                      shape.nodes_per_depth.end(),
                                      std::uint64_t{0});
  EXPECT_EQ(sum, shape.total_nodes);
  EXPECT_EQ(shape.nodes_per_depth.size(),
            static_cast<std::size_t>(shape.max_depth_reached) + 1);
}

TEST(TreeShape, DepthZeroSliceIsTheWholeTree) {
  auto g = graph::gnp(30, 0.2, 13);
  TreeShape shape = analyze_tree_shape(g);
  ASSERT_FALSE(shape.slices.empty());
  const DepthSlice& root = shape.slices[0];
  ASSERT_EQ(root.subtree_sizes.size(), 1u);
  EXPECT_EQ(root.subtree_sizes[0], shape.total_nodes);
  EXPECT_EQ(root.empty_slots, 0u);
  EXPECT_DOUBLE_EQ(root.top_share, 1.0);
}

TEST(TreeShape, SliceSizesSumToReachableNodes) {
  // Sub-trees rooted at depth d partition the nodes at depth ≥ d, so each
  // slice's sizes sum to total − (nodes above depth d).
  auto g = graph::complement(graph::p_hat(26, 0.3, 0.8, 17));
  TreeShapeOptions opt;
  opt.record_max_depth = 6;
  TreeShape shape = analyze_tree_shape(g, opt);
  std::uint64_t above = 0;
  for (const DepthSlice& slice : shape.slices) {
    std::uint64_t slice_sum = std::accumulate(
        slice.subtree_sizes.begin(), slice.subtree_sizes.end(),
        std::uint64_t{0});
    EXPECT_EQ(slice_sum + above, shape.total_nodes) << "depth " << slice.depth;
    if (static_cast<std::size_t>(slice.depth) <
        shape.nodes_per_depth.size())
      above += shape.nodes_per_depth[static_cast<std::size_t>(slice.depth)];
    else
      break;
  }
}

TEST(TreeShape, SubtreeCountsMatchDepthHistogram) {
  auto g = graph::gnp(28, 0.2, 19);
  TreeShapeOptions opt;
  opt.record_max_depth = 8;
  TreeShape shape = analyze_tree_shape(g, opt);
  for (const DepthSlice& slice : shape.slices) {
    const std::uint64_t at_depth =
        static_cast<std::size_t>(slice.depth) < shape.nodes_per_depth.size()
            ? shape.nodes_per_depth[static_cast<std::size_t>(slice.depth)]
            : 0;
    EXPECT_EQ(slice.subtree_sizes.size(), at_depth) << "depth " << slice.depth;
    EXPECT_LE(slice.subtree_sizes.size(),
              std::uint64_t{1} << slice.depth);
  }
}

TEST(TreeShape, EdgelessGraphIsASingleNode) {
  TreeShape shape = analyze_tree_shape(graph::empty_graph(10));
  EXPECT_EQ(shape.total_nodes, 1u);
  EXPECT_EQ(shape.best_size, 0);
  EXPECT_EQ(shape.max_depth_reached, 0);
}

TEST(TreeShape, PvcStopsAtFirstCover) {
  auto g = graph::complement(graph::p_hat(22, 0.3, 0.8, 23));
  vc::SequentialConfig sc;
  int min = vc::solve_sequential(g, sc).best_size;

  TreeShapeOptions mvc_opt;
  TreeShape mvc_shape = analyze_tree_shape(g, mvc_opt);

  TreeShapeOptions pvc_opt;
  pvc_opt.solver.problem = vc::Problem::kPvc;
  pvc_opt.solver.k = min + 1;
  TreeShape pvc_shape = analyze_tree_shape(g, pvc_opt);

  EXPECT_LE(pvc_shape.best_size, min + 1);
  EXPECT_LE(pvc_shape.total_nodes, mvc_shape.total_nodes);
}

TEST(TreeShape, NodeLimitSetsTimedOut) {
  auto g = graph::complement(graph::p_hat(40, 0.3, 0.9, 29));
  TreeShapeOptions opt;
  opt.limits.max_tree_nodes = 10;
  TreeShape shape = analyze_tree_shape(g, opt);
  EXPECT_TRUE(shape.timed_out);
  EXPECT_LE(shape.total_nodes, 10u);
}

TEST(TreeShape, ImbalanceGrowsWithDepthOnHardInstances) {
  // The §III-B claim in numbers: at deeper starting levels the sub-tree
  // size distribution is increasingly skewed (top_share stays large while
  // the number of slots grows).
  auto g = graph::complement(graph::p_hat(30, 0.35, 0.85, 31));
  TreeShapeOptions opt;
  opt.record_max_depth = 6;
  TreeShape shape = analyze_tree_shape(g, opt);
  const DepthSlice& d2 = shape.slices[2];
  const DepthSlice& d5 = shape.slices[5];
  if (d2.subtree_sizes.size() >= 2 && d5.subtree_sizes.size() >= 4) {
    EXPECT_GE(d5.max_over_mean, 1.0);
    EXPECT_GE(d5.gini, 0.0);
    EXPECT_LE(d5.gini, 1.0);
  }
}

TEST(TreeShapeDeathTest, PvcRequiresK) {
  TreeShapeOptions opt;
  opt.solver.problem = vc::Problem::kPvc;
  opt.solver.k = 0;
  EXPECT_DEATH(analyze_tree_shape(graph::path(4), opt), "k > 0");
}

}  // namespace
}  // namespace gvc::harness

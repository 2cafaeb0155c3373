#include "vc/greedy.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/oracle.hpp"

namespace gvc::vc {
namespace {

TEST(GreedyMvc, ProducesValidCover) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    CsrGraph g = graph::gnp(60, 0.1, seed);
    GreedyResult r = greedy_mvc(g);
    EXPECT_EQ(static_cast<int>(r.cover.size()), r.size);
    EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
  }
}

TEST(GreedyMvc, UpperBoundsTheOptimum) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    CsrGraph g = graph::gnp(16, 0.3, seed);
    EXPECT_GE(greedy_mvc(g).size, oracle_mvc_size(g));
  }
}

TEST(GreedyMvc, ExactOnEasyStructures) {
  // The reduction rules alone solve trees and isolated triangles optimally.
  EXPECT_EQ(greedy_mvc(graph::star(9)).size, 1);
  EXPECT_EQ(greedy_mvc(graph::path(7)).size, 3);
  EXPECT_EQ(greedy_mvc(graph::empty_graph(5)).size, 0);
  EXPECT_EQ(greedy_mvc(graph::complete(3)).size, 2);
}

TEST(GreedyMvc, CompleteGraph) {
  // K_n: any cover needs n-1; greedy achieves it.
  EXPECT_EQ(greedy_mvc(graph::complete(8)).size, 7);
}

/// The textbook greedy: reduce with kSerial, remove max_degree_vertex()
/// (largest degree, smallest id), repeat. greedy_mvc() must make exactly
/// these picks.
GreedyResult textbook_greedy(const CsrGraph& g) {
  DegreeArray da(g);
  const BudgetPolicy policy = BudgetPolicy::none();
  reduce(g, da, policy, ReduceSemantics::kSerial);
  while (da.num_edges() > 0) {
    da.remove_into_solution(g, da.max_degree_vertex());
    reduce(g, da, policy, ReduceSemantics::kSerial);
  }
  return GreedyResult{da.solution_size(), da.solution()};
}

TEST(GreedyMvc, SameCoverAsTheTextbookLoop) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrGraph graphs[] = {
        graph::gnp(80, 0.1, seed),
        graph::gnp(300, 0.02, seed),
        graph::barabasi_albert(250, 4, seed),
        graph::complement(graph::p_hat(90, 0.3, 0.8, seed)),
        graph::watts_strogatz(200, 3, 0.3, seed),
        graph::power_grid(400, 0.4, seed),
    };
    for (const CsrGraph& g : graphs) {
      const GreedyResult want = textbook_greedy(g);
      const GreedyResult got = greedy_mvc(g);
      ASSERT_EQ(got.size, want.size) << "seed " << seed << " |V|=" << g.num_vertices();
      ASSERT_EQ(got.cover, want.cover) << "seed " << seed << " |V|=" << g.num_vertices();
    }
  }
}

TEST(MaximalMatching, IsAMatchingAndMaximal) {
  CsrGraph g = graph::gnp(40, 0.15, 4);
  auto m = maximal_matching(g);
  std::vector<bool> used(40, false);
  for (auto [u, v] : m) {
    EXPECT_TRUE(g.has_edge(u, v));
    EXPECT_FALSE(used[static_cast<std::size_t>(u)]);
    EXPECT_FALSE(used[static_cast<std::size_t>(v)]);
    used[static_cast<std::size_t>(u)] = used[static_cast<std::size_t>(v)] = true;
  }
  // Maximality: every edge touches a matched vertex.
  for (Vertex v = 0; v < 40; ++v)
    for (Vertex u : g.neighbors(v))
      EXPECT_TRUE(used[static_cast<std::size_t>(v)] ||
                  used[static_cast<std::size_t>(u)]);
}

TEST(MatchingLowerBound, BracketsOptimum) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    CsrGraph g = graph::gnp(15, 0.3, seed + 100);
    int opt = oracle_mvc_size(g);
    int lb = matching_lower_bound(g);
    EXPECT_LE(lb, opt);
    EXPECT_GE(2 * lb, opt);  // matching bound is a 2-approximation
  }
}

TEST(TwoApproxCover, ValidAndWithinFactorTwo) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    CsrGraph g = graph::gnp(15, 0.3, seed + 200);
    auto cover = two_approx_cover(g);
    EXPECT_TRUE(graph::is_vertex_cover(g, cover));
    EXPECT_LE(static_cast<int>(cover.size()), 2 * oracle_mvc_size(g));
  }
}

}  // namespace
}  // namespace gvc::vc

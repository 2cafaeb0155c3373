#include "vc/local_search.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/greedy.hpp"
#include "vc/oracle.hpp"

namespace gvc::vc {
namespace {

TEST(LocalSearch, NeverEnlargesAndStaysValid) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto g = graph::gnp(40, 0.15, seed + 3);
    auto start = two_approx_cover(g);  // deliberately slack start
    auto improved = improve_cover(g, start, {50, seed});
    EXPECT_LE(improved.size(), start.size());
    EXPECT_TRUE(graph::is_vertex_cover(g, improved));
  }
}

TEST(LocalSearch, PrunesRedundantVertices) {
  // Start from the full vertex set: everything redundant collapses away.
  auto g = graph::star(10);
  std::vector<graph::Vertex> all;
  for (graph::Vertex v = 0; v < 10; ++v) all.push_back(v);
  auto improved = improve_cover(g, all);
  EXPECT_EQ(improved.size(), 1u);  // the hub
  EXPECT_EQ(improved[0], 0);
}

TEST(LocalSearch, NeverBeatsOptimum) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto g = graph::gnp(15, 0.3, seed + 41);
    auto cover = local_search_cover(g, {80, seed});
    EXPECT_GE(static_cast<int>(cover.size()), oracle_mvc_size(g));
    EXPECT_TRUE(graph::is_vertex_cover(g, cover));
  }
}

TEST(LocalSearch, AtLeastAsGoodAsGreedyAlone) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto g = graph::barabasi_albert(60, 3, seed + 5);
    auto ls = local_search_cover(g, {60, seed});
    EXPECT_LE(static_cast<int>(ls.size()), greedy_mvc(g).size);
  }
}

TEST(LocalSearch, FindsOptimumOnEasyStructures) {
  EXPECT_EQ(local_search_cover(graph::cycle(10)).size(), 5u);
  EXPECT_EQ(local_search_cover(graph::star(12)).size(), 1u);
  EXPECT_EQ(local_search_cover(graph::complete(6)).size(), 5u);
  EXPECT_TRUE(local_search_cover(graph::empty_graph(4)).empty());
}

TEST(LocalSearch, DeterministicPerSeed) {
  auto g = graph::gnp(35, 0.2, 71);
  auto a = local_search_cover(g, {50, 9});
  auto b = local_search_cover(g, {50, 9});
  EXPECT_EQ(a, b);
}

TEST(LocalSearchDeathTest, RejectsInvalidStartingCover) {
  auto g = graph::path(4);
  EXPECT_DEATH(improve_cover(g, {0}), "valid cover");
}

}  // namespace
}  // namespace gvc::vc

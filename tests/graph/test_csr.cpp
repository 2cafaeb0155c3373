#include "graph/csr.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace gvc::graph {
namespace {

CsrGraph triangle() { return from_edges(3, {{0, 1}, {1, 2}, {0, 2}}); }

/// A graph on n vertices with exactly `edges` distinct edges: circulant
/// chords {i, i+d mod n} for d = 1, 2, ... until the count is reached.
CsrGraph with_edge_count(Vertex n, std::int64_t edges) {
  std::vector<std::pair<Vertex, Vertex>> list;
  for (Vertex d = 1; d <= n / 2; ++d)
    for (Vertex i = 0; i < n; ++i) {
      if (static_cast<std::int64_t>(list.size()) == edges) return from_edges(n, list);
      if (2 * d == n && i >= d) break;  // the diameter chord pairs up twice
      list.emplace_back(i, (i + d) % n);
    }
  EXPECT_EQ(static_cast<std::int64_t>(list.size()), edges);
  return from_edges(n, list);
}

/// has_edge() must agree with a binary search of the sorted CSR list on
/// every ordered pair.
void expect_has_edge_matches_csr(const CsrGraph& g) {
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = g.neighbors(u);
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(g.has_edge(u, v), std::binary_search(nbrs.begin(), nbrs.end(), v))
          << u << "-" << v;
  }
}

TEST(CsrGraph, EmptyGraph) {
  CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
  g.validate();
}

TEST(CsrGraph, TriangleBasics) {
  CsrGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  g.validate();
}

TEST(CsrGraph, NeighborsSortedSpan) {
  CsrGraph g = from_edges(4, {{2, 0}, {2, 3}, {2, 1}});
  auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 3);
}

TEST(CsrGraph, HasEdgeSymmetric) {
  CsrGraph g = triangle();
  for (Vertex u = 0; u < 3; ++u)
    for (Vertex v = 0; v < 3; ++v)
      EXPECT_EQ(g.has_edge(u, v), u != v);
}

TEST(CsrGraph, HasEdgeAbsent) {
  CsrGraph g = from_edges(4, {{0, 1}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(CsrGraph, IsolatedVerticesHaveDegreeZero) {
  CsrGraph g = from_edges(5, {{0, 1}});
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_EQ(g.degree(4), 0);
  EXPECT_TRUE(g.neighbors(3).empty());
}

TEST(CsrGraph, EqualityIsStructural) {
  EXPECT_EQ(triangle(), triangle());
  EXPECT_NE(triangle(), from_edges(3, {{0, 1}, {1, 2}}));
}

TEST(CsrGraphRows, GateOnBothSidesAt63And64And65) {
  // Rows are built iff n * ceil(n/64) <= |E|: 63 and 64 words at n = 63
  // and 64 (one word per row), 130 at n = 65 (two words per row).
  for (Vertex n : {63, 64, 65}) {
    const std::int64_t words = (n + 63) / 64;
    const std::int64_t gate = n * words;
    SCOPED_TRACE("n=" + std::to_string(n));
    CsrGraph below = with_edge_count(n, gate - 1);
    EXPECT_EQ(below.num_edges(), gate - 1);
    EXPECT_FALSE(below.has_rows());
    EXPECT_EQ(below.row_words(), 0u);
    expect_has_edge_matches_csr(below);
    below.validate();

    CsrGraph at = with_edge_count(n, gate);
    EXPECT_EQ(at.num_edges(), gate);
    EXPECT_TRUE(at.has_rows());
    EXPECT_EQ(at.row_words(), static_cast<std::size_t>(words));
    expect_has_edge_matches_csr(at);
    at.validate();
    // Each row holds exactly the CSR list, and nothing past bit n-1.
    for (Vertex v = 0; v < n; ++v) {
      std::vector<Vertex> from_row;
      for (std::size_t w = 0; w < at.row_words(); ++w)
        for (int b = 0; b < 64; ++b)
          if ((at.row(v)[w] >> b) & 1u)
            from_row.push_back(static_cast<Vertex>(64 * w + b));
      auto nbrs = at.neighbors(v);
      EXPECT_EQ(from_row, std::vector<Vertex>(nbrs.begin(), nbrs.end()));
    }
  }
}

TEST(CsrGraphRows, HasEdgeMatchesBinarySearchOnGeneratedGraphs) {
  const CsrGraph dense = gnp(90, 0.3, 7);
  const CsrGraph sparse = power_grid(150, 0.4, 7);
  ASSERT_TRUE(dense.has_rows());
  ASSERT_FALSE(sparse.has_rows());
  expect_has_edge_matches_csr(dense);
  expect_has_edge_matches_csr(sparse);
  expect_has_edge_matches_csr(triangle());
}

TEST(CsrGraphDeathTest, RowsSkipOutOfRangeIdsAndValidateReportsThem) {
  // One vertex, two arcs to nonexistent vertices: the gate (1 <= 1 edge)
  // admits rows, construction must not write outside them, and validate()
  // still names the defect.
  CsrGraph g(std::vector<std::int64_t>{0, 2}, std::vector<Vertex>{5, -3});
  EXPECT_TRUE(g.has_rows());
  EXPECT_EQ(g.row(0)[0], 0u);
  EXPECT_DEATH(g.validate(), "out of range");
}

TEST(CsrGraphDeathTest, RowsTolerateNonMonotoneOffsets) {
  CsrGraph g(std::vector<std::int64_t>{0, 5, 2, 6},
             std::vector<Vertex>{1, 2, 0, 2, 0, 1});
  EXPECT_TRUE(g.has_rows());
  EXPECT_DEATH(g.validate(), "offsets not monotone");
}

TEST(CsrGraphDeathTest, ValidateCatchesAsymmetry) {
  // Hand-build a broken CSR: arc 0→1 without 1→0.
  CsrGraph g(std::vector<std::int64_t>{0, 1, 1}, std::vector<Vertex>{1});
  EXPECT_DEATH(g.validate(), "asymmetric");
}

TEST(CsrGraphDeathTest, ValidateCatchesSelfLoop) {
  CsrGraph g(std::vector<std::int64_t>{0, 1}, std::vector<Vertex>{0});
  EXPECT_DEATH(g.validate(), "self-loop");
}

TEST(CsrGraphDeathTest, ConstructorRejectsInconsistentOffsets) {
  EXPECT_DEATH(CsrGraph(std::vector<std::int64_t>{0, 5},
                        std::vector<Vertex>{1}),
               "GVC_CHECK");
}

}  // namespace
}  // namespace gvc::graph

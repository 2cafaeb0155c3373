#include "vc/degree_array.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "util/rng.hpp"
#include "vc/undo_trail.hpp"

namespace gvc::vc {
namespace {

using graph::from_edges;

TEST(DegreeArray, RootStateMatchesGraph) {
  CsrGraph g = graph::petersen();
  DegreeArray da(g);
  EXPECT_EQ(da.num_vertices(), 10);
  EXPECT_EQ(da.solution_size(), 0);
  EXPECT_EQ(da.num_edges(), 15);
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_TRUE(da.present(v));
    EXPECT_EQ(da.degree(v), 3);
  }
  da.check_consistency(g);
}

TEST(DegreeArray, RemoveVertexUpdatesNeighborsAndCounters) {
  CsrGraph g = from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  DegreeArray da(g);
  da.remove_into_solution(g, 0);
  EXPECT_FALSE(da.present(0));
  EXPECT_EQ(da.solution_size(), 1);
  EXPECT_EQ(da.num_edges(), 1);  // only 1-2 remains
  EXPECT_EQ(da.degree(1), 1);
  EXPECT_EQ(da.degree(2), 1);
  EXPECT_EQ(da.degree(3), 0);
  da.check_consistency(g);
}

TEST(DegreeArray, RemoveNeighborsBranch) {
  CsrGraph g = graph::star(5);
  DegreeArray da(g);
  int removed = da.remove_neighbors_into_solution(g, 0);
  EXPECT_EQ(removed, 4);
  EXPECT_TRUE(da.present(0));
  EXPECT_EQ(da.degree(0), 0);
  EXPECT_EQ(da.solution_size(), 4);
  EXPECT_EQ(da.num_edges(), 0);
  da.check_consistency(g);
}

TEST(DegreeArray, RemoveNeighborsSkipsAlreadyRemoved) {
  CsrGraph g = from_edges(3, {{0, 1}, {0, 2}});
  DegreeArray da(g);
  da.remove_into_solution(g, 1);
  int removed = da.remove_neighbors_into_solution(g, 0);
  EXPECT_EQ(removed, 1);  // only vertex 2
  EXPECT_EQ(da.solution_size(), 2);
  da.check_consistency(g);
}

TEST(DegreeArray, MaxDegreeVertexSmallestIdTieBreak) {
  // Path 0-1-2-3: vertices 1 and 2 both have degree 2.
  CsrGraph g = graph::path(4);
  DegreeArray da(g);
  EXPECT_EQ(da.max_degree_vertex(), 1);
  EXPECT_EQ(da.max_degree(), 2);
}

TEST(DegreeArray, MaxDegreeVertexAfterRemovals) {
  CsrGraph g = graph::star(4);
  DegreeArray da(g);
  da.remove_into_solution(g, 0);
  // Remaining vertices all have degree 0; smallest id wins.
  EXPECT_EQ(da.max_degree_vertex(), 1);
  EXPECT_EQ(da.max_degree(), 0);
}

TEST(DegreeArray, MaxDegreeVertexEmpty) {
  CsrGraph g = graph::complete(2);
  DegreeArray da(g);
  da.remove_into_solution(g, 0);
  da.remove_into_solution(g, 1);
  EXPECT_EQ(da.max_degree_vertex(), -1);
  EXPECT_EQ(da.max_degree(), 0);
}

TEST(DegreeArray, SolutionAndPresentPartitionVertices) {
  CsrGraph g = graph::cycle(6);
  DegreeArray da(g);
  da.remove_into_solution(g, 1);
  da.remove_into_solution(g, 4);
  EXPECT_EQ(da.solution(), (std::vector<Vertex>{1, 4}));
  EXPECT_EQ(da.present_vertices(), (std::vector<Vertex>{0, 2, 3, 5}));
}

TEST(DegreeArray, CopyIsIndependent) {
  CsrGraph g = graph::complete(4);
  DegreeArray a(g);
  DegreeArray b = a;
  b.remove_into_solution(g, 0);
  EXPECT_TRUE(a.present(0));
  EXPECT_FALSE(b.present(0));
  EXPECT_NE(a, b);
  a.check_consistency(g);
  b.check_consistency(g);
}

TEST(DegreeArray, RandomRemovalSequenceStaysConsistent) {
  util::Pcg32 rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    CsrGraph g = graph::gnp(40, 0.2, trial);
    DegreeArray da(g);
    std::int64_t edges_before = da.num_edges();
    while (da.num_edges() > 0) {
      // Remove a random present vertex with nonzero degree.
      Vertex v = da.max_degree_vertex();
      if (rng.chance(0.5)) {
        da.remove_into_solution(g, v);
        // Every removal of degree-d vertex removes exactly d edges.
      } else {
        da.remove_neighbors_into_solution(g, v);
      }
      EXPECT_LT(da.num_edges(), edges_before);
      edges_before = da.num_edges();
      da.check_consistency(g);
    }
  }
}

TEST(DegreeArrayMaxCache, MatchesBruteForceUnderRandomRemovals) {
  util::Pcg32 rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    CsrGraph g = graph::gnp(35, 0.15, trial + 1);
    DegreeArray da(g);
    while (true) {
      // Brute-force reference: smallest-id present vertex of max degree.
      Vertex ref = -1;
      std::int32_t ref_deg = -1;
      for (Vertex v = 0; v < da.num_vertices(); ++v) {
        if (!da.present(v)) continue;
        if (da.degree(v) > ref_deg) {
          ref_deg = da.degree(v);
          ref = v;
        }
      }
      EXPECT_EQ(da.max_degree_vertex(), ref);
      EXPECT_EQ(da.max_degree(), da.num_edges() == 0 ? 0 : ref_deg);
      EXPECT_GE(da.max_degree_bound(), ref < 0 ? 0 : ref_deg);
      da.check_consistency(g);
      if (ref < 0 || ref_deg == 0) break;
      if (rng.chance(0.5))
        da.remove_into_solution(g, ref);
      else
        da.remove_neighbors_into_solution(g, ref);
    }
  }
}

TEST(DegreeArrayMaxCache, BoundSurvivesCopies) {
  CsrGraph g = graph::star(8);
  DegreeArray a(g);
  EXPECT_EQ(a.max_degree(), 7);
  DegreeArray b = a;
  b.remove_into_solution(g, 0);  // hub gone: leaves drop to degree 0
  EXPECT_EQ(b.max_degree(), 0);
  EXPECT_EQ(a.max_degree(), 7);  // the original's cache is untouched
  a.check_consistency(g);
  b.check_consistency(g);
}

TEST(DegreeArrayTracking, LogsEveryDecrementedVertex) {
  CsrGraph g = from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  DegreeArray da(g);
  da.enable_tracking();
  da.remove_into_solution(g, 0);
  // All three neighbors of 0 were present and lost a degree.
  EXPECT_EQ(da.dirty(), (std::vector<Vertex>{1, 2, 3}));
  da.clear_dirty();
  da.remove_into_solution(g, 1);
  EXPECT_EQ(da.dirty(), (std::vector<Vertex>{2}));  // 0 is already gone
  da.check_consistency(g);
}

TEST(DegreeArrayTracking, OffByDefaultAndDisableClears) {
  CsrGraph g = graph::cycle(5);
  DegreeArray da(g);
  EXPECT_FALSE(da.tracking());
  da.remove_into_solution(g, 0);
  EXPECT_TRUE(da.dirty().empty());
  da.enable_tracking();
  da.remove_into_solution(g, 2);
  EXPECT_FALSE(da.dirty().empty());
  da.disable_tracking();
  EXPECT_TRUE(da.dirty().empty());
  da.mark_dirty(3);  // no-op while tracking is off
  EXPECT_TRUE(da.dirty().empty());
}

TEST(DegreeArrayTracking, LogTravelsWithCopies) {
  CsrGraph g = graph::path(4);
  DegreeArray da(g);
  da.enable_tracking();
  da.remove_into_solution(g, 1);
  DegreeArray child = da;
  EXPECT_TRUE(child.tracking());
  EXPECT_EQ(child.dirty(), da.dirty());
  child.remove_into_solution(g, 2);
  EXPECT_GT(child.dirty().size(), da.dirty().size());
}

TEST(DegreeArrayTracking, EqualityIgnoresLogAndCaches) {
  CsrGraph g = graph::cycle(6);
  DegreeArray a(g);
  DegreeArray b(g);
  b.enable_tracking();
  a.remove_into_solution(g, 3);
  b.remove_into_solution(g, 3);
  b.max_degree_vertex();  // tighten b's cache
  EXPECT_EQ(a, b);  // same logical state despite dirty log / cache deltas
}

// --- presence bitset and the live-neighbor walk -----------------------------

/// v's CSR list filtered by present(): what every live walk used to do.
std::vector<Vertex> filtered_csr(const CsrGraph& g, const DegreeArray& da,
                                 Vertex v) {
  std::vector<Vertex> out;
  for (Vertex u : g.neighbors(v))
    if (da.present(u)) out.push_back(u);
  return out;
}

std::vector<Vertex> walked(const CsrGraph& g, const DegreeArray& da,
                           Vertex v) {
  std::vector<Vertex> out;
  da.for_each_present_neighbor(g, v, [&](Vertex u) { out.push_back(u); });
  return out;
}

/// Every presence word equals the bitset rebuilt from present().
void expect_presence_bits(const DegreeArray& da) {
  const auto n = static_cast<std::size_t>(da.num_vertices());
  for (std::size_t w = 0; w * 64 < n; ++w) {
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < 64 && 64 * w + i < n; ++i)
      if (da.present(static_cast<Vertex>(64 * w + i))) want |= std::uint64_t{1} << i;
    ASSERT_EQ(da.presence_word(w), want) << "word " << w;
  }
}

/// Removes a random present vertex of positive degree, or (half the time)
/// all its neighbors. Requires num_edges() > 0.
void random_branch_step(const CsrGraph& g, DegreeArray& da, util::Pcg32& rng) {
  Vertex v;
  do {
    v = static_cast<Vertex>(rng.below(static_cast<std::uint32_t>(da.num_vertices())));
  } while (!da.present(v) || da.degree(v) == 0);
  if (rng.chance(0.5))
    da.remove_into_solution(g, v);
  else
    da.remove_neighbors_into_solution(g, v);
}

/// Graphs on both sides of the CSR row gate; the bool is has_rows().
std::vector<std::pair<CsrGraph, bool>> gate_graphs(std::uint64_t seed) {
  std::vector<std::pair<CsrGraph, bool>> out;
  out.emplace_back(graph::gnp(70, 0.3, seed), true);
  out.emplace_back(graph::complement(graph::p_hat(130, 0.3, 0.8, seed)), true);
  out.emplace_back(graph::barabasi_albert(100, 8, seed), true);
  out.emplace_back(graph::power_grid(150, 0.5, seed), false);
  out.emplace_back(graph::watts_strogatz(200, 3, 0.2, seed), false);
  out.emplace_back(graph::gnp(200, 0.02, seed), false);
  return out;
}

TEST(DegreeArrayPresence, RootBitsCoverExactlyTheVertices) {
  for (Vertex n : {0, 1, 63, 64, 65, 130}) {
    CsrGraph g = graph::empty_graph(n);
    DegreeArray da(g);
    expect_presence_bits(da);
    da.check_consistency(g);
  }
}

TEST(DegreeArrayPresence, WalkEqualsFilteredCsrOnBothSidesOfTheRowGate) {
  util::Pcg32 rng(31);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto& [g, rows] : gate_graphs(seed)) {
      ASSERT_EQ(g.has_rows(), rows) << g.num_vertices();
      DegreeArray da(g);
      for (;;) {
        for (Vertex v = 0; v < g.num_vertices(); ++v)
          ASSERT_EQ(walked(g, da, v), filtered_csr(g, da, v)) << "v=" << v;
        expect_presence_bits(da);
        da.check_consistency(g);
        if (da.num_edges() == 0) break;
        random_branch_step(g, da, rng);
      }
    }
  }
}

TEST(DegreeArrayPresence, WalkStopsAtTheFirstFalse) {
  for (const CsrGraph& g : {graph::complete(70), graph::star(100)}) {
    DegreeArray da(g);
    da.remove_into_solution(g, 1);
    std::vector<Vertex> seen;
    da.for_each_present_neighbor(g, 0, [&](Vertex u) {
      seen.push_back(u);
      return seen.size() < 3;
    });
    EXPECT_EQ(seen, (std::vector<Vertex>{2, 3, 4})) << g.has_rows();
  }
}

TEST(DegreeArrayPresence, BitsFollowRemoveRollbackAndCopy) {
  util::Pcg32 rng(47);
  for (const auto& [g, rows] : gate_graphs(9)) {
    SCOPED_TRACE(rows ? "rows" : "csr");
    const DegreeArray root(g);
    DegreeArray da(g);
    UndoTrail trail;
    da.attach_trail(&trail);
    const UndoTrail::Mark outer = trail.watermark(da);
    for (int i = 0; i < 3 && da.num_edges() > 0; ++i) random_branch_step(g, da, rng);
    const DegreeArray mid = da;  // copy construction
    const UndoTrail::Mark inner = trail.watermark(da);
    while (da.num_edges() > 0) random_branch_step(g, da, rng);
    expect_presence_bits(da);
    da.check_consistency(g);

    DegreeArray assigned(g);
    assigned = da;  // copy assignment carries the bits too
    EXPECT_EQ(assigned, da);
    expect_presence_bits(assigned);
    assigned.check_consistency(g);

    trail.rollback(inner, da);
    EXPECT_EQ(da, mid);
    expect_presence_bits(da);
    da.check_consistency(g);
    trail.rollback(outer, da);
    EXPECT_EQ(da, root);
    expect_presence_bits(da);
    da.check_consistency(g);
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(walked(g, da, v), filtered_csr(g, da, v));
  }
}

TEST(DegreeArrayDeathTest, ConsistencyCheckCatchesTampering) {
  CsrGraph g = graph::complete(3);
  DegreeArray da(g);
  DegreeArray other(graph::path(3));
  // A degree array built for one graph checked against a structurally
  // different graph with equal |V| must trip the consistency check.
  EXPECT_DEATH(other.check_consistency(g), "out of sync");
}

}  // namespace
}  // namespace gvc::vc

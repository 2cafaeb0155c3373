// Unit tests for the depth-first descent (vc/descent.hpp): the kCopy local
// stack (LIFO order, high water, slot round trips, overflow and size-mismatch
// aborts), the depth-bound helper, and the Descent contract — both
// branch-state modes visit the same nodes in the same order, including when
// a neighbors child is given away or arrives already built.

#include "vc/descent.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "vc/reductions.hpp"

namespace gvc::vc {
namespace {

using graph::CsrGraph;
using graph::Vertex;

DegreeArray make_state(const CsrGraph& g, int removals) {
  DegreeArray da(g);
  for (int i = 0; i < removals; ++i)
    da.remove_into_solution(g, da.max_degree_vertex());
  return da;
}

// --- LocalStack --------------------------------------------------------------

TEST(LocalStack, LifoOrder) {
  auto g = graph::complete(6);
  LocalStack stack(6, 4);
  stack.push(make_state(g, 0));
  stack.push(make_state(g, 1));
  stack.push(make_state(g, 2));
  EXPECT_EQ(stack.size(), 3);

  DegreeArray out;
  ASSERT_TRUE(stack.try_pop(out));
  EXPECT_EQ(out.solution_size(), 2);
  ASSERT_TRUE(stack.try_pop(out));
  EXPECT_EQ(out.solution_size(), 1);
  ASSERT_TRUE(stack.try_pop(out));
  EXPECT_EQ(out.solution_size(), 0);
  EXPECT_FALSE(stack.try_pop(out));
}

TEST(LocalStack, EmptyBehaviour) {
  LocalStack stack(10, 3);
  EXPECT_TRUE(stack.empty());
  EXPECT_EQ(stack.size(), 0);
  DegreeArray out;
  EXPECT_FALSE(stack.try_pop(out));
}

TEST(LocalStack, HighWaterTracksDeepestUse) {
  auto g = graph::cycle(5);
  LocalStack stack(5, 8);
  DegreeArray out;
  stack.push(make_state(g, 0));
  stack.push(make_state(g, 0));
  stack.try_pop(out);
  stack.push(make_state(g, 0));
  EXPECT_EQ(stack.high_water(), 2);
  stack.push(make_state(g, 0));
  stack.push(make_state(g, 0));
  EXPECT_EQ(stack.high_water(), 4);
}

TEST(LocalStack, PushPopRoundTripsContent) {
  auto g = graph::petersen();
  LocalStack stack(10, 2);
  auto original = make_state(g, 3);
  stack.push(original);
  DegreeArray out;
  ASSERT_TRUE(stack.try_pop(out));
  EXPECT_EQ(out, original);
  out.check_consistency(g);
}

TEST(LocalStack, FootprintMatchesModel) {
  LocalStack stack(100, 7);
  EXPECT_EQ(stack.footprint_bytes(), 7 * (100 * 4 + 16));
}

TEST(LocalStackDeathTest, OverflowAborts) {
  auto g = graph::path(4);
  LocalStack stack(4, 1);
  stack.push(make_state(g, 0));
  EXPECT_DEATH(stack.push(make_state(g, 0)), "overflow");
}

TEST(LocalStackDeathTest, SizeMismatchAborts) {
  auto g5 = graph::path(5);
  LocalStack stack(4, 2);
  EXPECT_DEATH(stack.push(DegreeArray(g5)), "mismatch");
}

// --- Descent -----------------------------------------------------------------

TEST(Descent, DepthBoundIsGreedyForMvcAndKForPvc) {
  EXPECT_EQ(descent_depth_bound(Problem::kMvc, 5, 10), 12);
  EXPECT_EQ(descent_depth_bound(Problem::kPvc, 5, 10), 7);
}

/// Walks the whole branch tree of `g` (branch on the maximum-degree vertex
/// until edgeless, no reductions) and records the degree array of every
/// node visited. Every third branch gives its neighbors child away, as a
/// donation would.
std::vector<std::vector<std::int32_t>> visit_sequence(const CsrGraph& g,
                                                      BranchStateMode mode) {
  ReduceWorkspace ws;
  Descent descent(g, mode,
                  descent_depth_bound(Problem::kMvc, 0, g.num_vertices()), ws);
  DegreeArray da(g);
  descent.adopt(da);
  std::vector<std::vector<std::int32_t>> seq;
  int branches = 0;
  for (;;) {
    seq.emplace_back(da.raw().begin(), da.raw().end());
    if (da.num_edges() > 0) {
      descent.branch(da, da.max_degree_vertex(), ++branches % 3 != 0);
      continue;
    }
    if (!descent.next(da)) break;
  }
  return seq;
}

TEST(Descent, BothModesVisitTheSameSequence) {
  for (const CsrGraph& g : {graph::petersen(), graph::gnp(14, 0.35, 3)}) {
    const auto copy = visit_sequence(g, BranchStateMode::kCopy);
    const auto trail = visit_sequence(g, BranchStateMode::kUndoTrail);
    EXPECT_GT(copy.size(), 20u);
    EXPECT_EQ(copy, trail);
  }
}

TEST(Descent, VmaxChildFirstThenNeighborsChild) {
  auto g = graph::star(4);  // centre 0
  for (BranchStateMode mode : all_branch_state_modes()) {
    ReduceWorkspace ws;
    Descent descent(g, mode, 4, ws);
    DegreeArray da(g);
    descent.adopt(da);
    descent.branch(da, 0);
    EXPECT_EQ(da.solution(), std::vector<Vertex>{0});
    ASSERT_TRUE(descent.next(da));
    EXPECT_EQ(da.solution(), (std::vector<Vertex>{1, 2, 3}));
    EXPECT_FALSE(descent.next(da));
  }
}

TEST(Descent, CopyModeDefersABuiltChildAsIs) {
  auto g = graph::petersen();
  ReduceWorkspace ws;
  Descent descent(g, BranchStateMode::kCopy, 4, ws);
  DegreeArray da(g);
  descent.adopt(da);
  const DegreeArray built = make_state(g, 4);  // any standalone node
  descent.branch(da, 0, /*neighbors_kept=*/true, &built);
  ASSERT_TRUE(descent.next(da));
  EXPECT_EQ(da, built);
  EXPECT_FALSE(descent.next(da));
}

TEST(Descent, AdoptStartsAFreshSubtree) {
  auto g = graph::petersen();
  ReduceWorkspace ws;
  Descent descent(g, BranchStateMode::kUndoTrail, 4, ws);
  DegreeArray da(g);
  descent.adopt(da);
  descent.branch(da, 0);
  EXPECT_EQ(ws.frames.size(), 1u);
  EXPECT_EQ(ws.undo_trail.depth(), 1u);

  da = make_state(g, 2);  // a node from elsewhere replaces the value
  descent.adopt(da);
  EXPECT_TRUE(ws.frames.empty());
  EXPECT_EQ(ws.undo_trail.depth(), 0u);
  EXPECT_EQ(da.trail(), &ws.undo_trail);
  EXPECT_FALSE(descent.next(da));
}

TEST(Descent, TrailModeDiscardsFramesAnEarlierDescentLeft) {
  auto g = graph::petersen();
  ReduceWorkspace ws;
  {
    // Stops mid-descent, as a limit or a PVC cover would.
    Descent stopped(g, BranchStateMode::kUndoTrail, 4, ws);
    DegreeArray da(g);
    stopped.adopt(da);
    stopped.branch(da, 0);
  }
  ASSERT_FALSE(ws.frames.empty());
  Descent descent(g, BranchStateMode::kUndoTrail, 4, ws);
  DegreeArray empty;  // a block that has not picked up a node yet
  EXPECT_FALSE(descent.next(empty));
}

TEST(DescentDeathTest, CopyModeOverflowAborts) {
  auto g = graph::complete(6);
  ReduceWorkspace ws;
  Descent descent(g, BranchStateMode::kCopy, 1, ws);
  DegreeArray da(g);
  descent.adopt(da);
  descent.branch(da, 0);
  EXPECT_DEATH(descent.branch(da, 1), "overflow");
}

TEST(DescentDeathTest, CopyModeSizeMismatchAborts) {
  auto g = graph::path(4);
  auto g5 = graph::path(5);
  ReduceWorkspace ws;
  Descent descent(g, BranchStateMode::kCopy, 2, ws);
  DegreeArray da(g);
  descent.adopt(da);
  const DegreeArray wrong(g5);
  EXPECT_DEATH(descent.branch(da, 1, /*neighbors_kept=*/true, &wrong),
               "mismatch");
}

}  // namespace
}  // namespace gvc::vc

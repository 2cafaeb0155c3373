// Unit tests for the undo trail (vc/undo_trail.hpp): watermark/rollback
// round-trips, nested rollback, trail reuse across nodes, interaction with
// the dirty log the incremental reduction engine feeds from, the LIFO
// discipline (double-undo aborts), and the snapshot rule (copies never
// inherit the attachment).

#include "vc/undo_trail.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "vc/reductions.hpp"

namespace gvc::vc {
namespace {

using graph::CsrGraph;

/// Full logical-state equality plus the tracking state rollback promises to
/// restore (operator== deliberately ignores the dirty log, so the tests
/// compare it explicitly).
void expect_fully_restored(const DegreeArray& got, const DegreeArray& want,
                           const CsrGraph& g) {
  EXPECT_TRUE(got == want);
  EXPECT_EQ(got.tracking(), want.tracking());
  EXPECT_EQ(got.dirty_overflowed(), want.dirty_overflowed());
  EXPECT_EQ(got.reduce_fixpoint_mask(), want.reduce_fixpoint_mask());
  EXPECT_EQ(got.dirty(), want.dirty());
  got.check_consistency(g);  // aborts on a stale maximum-degree cache
}

TEST(UndoTrail, WatermarkRollbackRestoresState) {
  CsrGraph g = graph::gnp(40, 0.2, 7);
  DegreeArray da(g);
  UndoTrail trail;
  da.attach_trail(&trail);

  DegreeArray before = da;  // snapshot for comparison (detached copy)
  UndoTrail::Mark mark = trail.watermark(da);
  da.remove_into_solution(g, da.max_degree_vertex());
  da.remove_neighbors_into_solution(g, 0);
  ASSERT_FALSE(da == before);
  EXPECT_GT(trail.num_entries(), 0u);

  trail.rollback(mark, da);
  expect_fully_restored(da, before, g);
  EXPECT_EQ(trail.num_entries(), 0u);
  EXPECT_EQ(trail.depth(), 0u);
}

TEST(UndoTrail, EmptyUndoIsANoOp) {
  CsrGraph g = graph::cycle(9);
  DegreeArray da(g);
  UndoTrail trail;
  da.attach_trail(&trail);

  DegreeArray before = da;
  UndoTrail::Mark mark = trail.watermark(da);
  trail.rollback(mark, da);  // no mutations in between
  expect_fully_restored(da, before, g);
}

TEST(UndoTrailDeathTest, DoubleUndoAborts) {
  CsrGraph g = graph::path(5);
  DegreeArray da(g);
  UndoTrail trail;
  da.attach_trail(&trail);

  UndoTrail::Mark mark = trail.watermark(da);
  da.remove_into_solution(g, 2);
  trail.rollback(mark, da);
  EXPECT_DEATH(trail.rollback(mark, da), "out of order");
}

TEST(UndoTrailDeathTest, OutOfOrderRollbackAborts) {
  CsrGraph g = graph::path(6);
  DegreeArray da(g);
  UndoTrail trail;
  da.attach_trail(&trail);

  UndoTrail::Mark outer = trail.watermark(da);
  da.remove_into_solution(g, 1);
  trail.watermark(da);  // inner watermark still live
  da.remove_into_solution(g, 3);
  EXPECT_DEATH(trail.rollback(outer, da), "out of order");
}

TEST(UndoTrail, NestedRollbackUnwindsInLifoOrder) {
  CsrGraph g = graph::gnp(30, 0.25, 11);
  DegreeArray da(g);
  UndoTrail trail;
  da.attach_trail(&trail);

  DegreeArray at_root = da;
  UndoTrail::Mark outer = trail.watermark(da);
  da.remove_into_solution(g, da.max_degree_vertex());
  DegreeArray at_level1 = da;

  UndoTrail::Mark inner = trail.watermark(da);
  da.remove_neighbors_into_solution(g, da.max_degree_vertex());
  da.remove_into_solution(g, da.max_degree_vertex());
  EXPECT_EQ(trail.depth(), 2u);

  trail.rollback(inner, da);
  expect_fully_restored(da, at_level1, g);
  EXPECT_EQ(trail.depth(), 1u);

  // The outer level can keep mutating after the inner undo.
  da.remove_into_solution(g, da.max_degree_vertex());
  trail.rollback(outer, da);
  expect_fully_restored(da, at_root, g);
}

TEST(UndoTrail, ReuseAcrossNodesKeepsLifetimeCounters) {
  CsrGraph g = graph::gnp(24, 0.3, 3);
  UndoTrail trail;

  std::uint64_t entries_after_first = 0;
  for (int node = 0; node < 3; ++node) {
    DegreeArray da(g);
    da.attach_trail(&trail);
    DegreeArray before = da;
    UndoTrail::Mark mark = trail.watermark(da);
    da.remove_into_solution(g, node);
    trail.rollback(mark, da);
    expect_fully_restored(da, before, g);
    if (node == 0) entries_after_first = trail.lifetime_entries();
    trail.reset();  // adopt-a-new-root discipline
    EXPECT_EQ(trail.num_entries(), 0u);
    EXPECT_EQ(trail.depth(), 0u);
  }
  // reset() discards live state but not the lifetime accounting.
  EXPECT_GT(entries_after_first, 0u);
  EXPECT_GT(trail.lifetime_entries(), entries_after_first);
  EXPECT_EQ(trail.lifetime_watermarks(), 3u);
  EXPECT_GT(trail.peak_entries(), 0u);
}

TEST(UndoTrail, RollbackRestoresDirtyLogForTheIncrementalEngine) {
  CsrGraph g = graph::gnp(32, 0.25, 19);
  DegreeArray da(g);
  UndoTrail trail;
  da.attach_trail(&trail);

  // Reach a reduced fixpoint the way a solver node does: the engine leaves
  // tracking on, the log empty, and the fixpoint mask set.
  ReduceWorkspace ws;
  reduce(g, da, BudgetPolicy::none(), ReduceSemantics::kIncremental, {},
         nullptr, &ws);
  ASSERT_TRUE(da.tracking());
  ASSERT_TRUE(da.dirty().empty());
  ASSERT_NE(da.reduce_fixpoint_mask(), 0);
  DegreeArray parent = da;

  // Child 1: branch mutation dirties vertices, the child's reduction then
  // consumes and clears the log and may change the mask.
  UndoTrail::Mark mark = trail.watermark(da);
  Vertex vmax = da.max_degree_vertex();
  ASSERT_GE(vmax, 0);
  da.remove_into_solution(g, vmax);
  EXPECT_FALSE(da.dirty().empty());
  reduce(g, da, BudgetPolicy::none(), ReduceSemantics::kIncremental, {},
         nullptr, &ws);
  EXPECT_TRUE(da.dirty().empty());

  // Backtrack: the restored array must offer the child-2 reduction exactly
  // the state the copying path's second copy would have carried.
  trail.rollback(mark, da);
  expect_fully_restored(da, parent, g);

  // And a watermark taken with a NON-empty log must restore it too (the
  // general contract, even though solver watermarks see empty logs).
  mark = trail.watermark(da);
  da.remove_neighbors_into_solution(g, da.max_degree_vertex());
  DegreeArray dirtied = da;
  UndoTrail::Mark inner = trail.watermark(da);
  da.remove_into_solution(g, da.max_degree_vertex());
  da.clear_dirty();  // engine-style log consumption below the watermark
  trail.rollback(inner, da);
  expect_fully_restored(da, dirtied, g);
  trail.rollback(mark, da);
  expect_fully_restored(da, parent, g);
}

TEST(UndoTrail, CopiesStartDetached) {
  // The sharing rule, both halves. Copy and move construction yield a
  // detached array: a donated or pushed node mutates its own value without
  // writing into the block's trail, so the block still rolls back exactly.
  CsrGraph g = graph::gnp(24, 0.2, 11);
  DegreeArray da(g);
  UndoTrail trail;
  da.attach_trail(&trail);
  const DegreeArray root = da;
  const UndoTrail::Mark mark = trail.watermark(da);
  da.remove_into_solution(g, da.max_degree_vertex());
  const std::size_t recorded = trail.num_entries();

  DegreeArray copy = da;
  EXPECT_EQ(copy.trail(), nullptr);
  DegreeArray assigned;
  assigned = da;
  EXPECT_EQ(assigned.trail(), nullptr);
  DegreeArray moved = std::move(assigned);
  EXPECT_EQ(moved.trail(), nullptr);
  copy.remove_into_solution(g, copy.max_degree_vertex());
  moved.remove_into_solution(g, moved.max_degree_vertex());
  EXPECT_EQ(trail.num_entries(), recorded);
  trail.rollback(mark, da);
  expect_fully_restored(da, root, g);

  // Assignment keeps the destination's attachment: a block adopting a
  // popped node records the new value's mutations into its own trail and
  // rolls back to the adopted value, not to what the array held before.
  trail.reset();
  da = copy;
  EXPECT_EQ(da.trail(), &trail);
  const DegreeArray adopted = da;
  const UndoTrail::Mark adopted_mark = trail.watermark(da);
  da.remove_into_solution(g, da.max_degree_vertex());
  trail.rollback(adopted_mark, da);
  expect_fully_restored(da, adopted, g);
}

TEST(UndoTrail, RollbackRestoresTheMaxDegreeCacheBound) {
  // A star plus a pendant chain: removing the hub collapses the maximum
  // degree, so queries inside the child tighten the cached bound far below
  // the parent's true maximum. Rollback must re-validate the cache — a
  // stale low bound would make max_degree_vertex() miss the hub.
  CsrGraph g = graph::star(12);
  DegreeArray da(g);
  UndoTrail trail;
  da.attach_trail(&trail);

  ASSERT_EQ(da.max_degree_vertex(), 0);  // the hub
  UndoTrail::Mark mark = trail.watermark(da);
  da.remove_into_solution(g, 0);
  EXPECT_EQ(da.max_degree(), 0);  // leaves only
  trail.rollback(mark, da);
  EXPECT_EQ(da.max_degree_vertex(), 0);
  EXPECT_EQ(da.max_degree(), 11);
  da.check_consistency(g);
}

}  // namespace
}  // namespace gvc::vc

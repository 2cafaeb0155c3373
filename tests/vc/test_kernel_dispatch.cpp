// Unit tests for the kernel-dispatch layer (vc/kernel_dispatch.hpp): the
// classifier's width/live-rule decisions at their exact boundaries, and the
// end-to-end contract that the knob never changes a solve's tree (same
// covers, same node counts).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/kernel_dispatch.hpp"
#include "vc/reductions.hpp"
#include "vc/sequential.hpp"

namespace gvc::vc {
namespace {

using graph::CsrGraph;
using graph::Vertex;

// ---- classify(): degree width ------------------------------------------

TEST(Classify, WidthBoundariesFollowTheMaxDegreeBound) {
  // star(n) has center degree n-1, so n = 256 / 257 / 65536 / 65537 pin the
  // bound to exactly 255 / 256 / 65535 / 65536 — both sides of each width
  // boundary.
  {
    DegreeArray da(graph::star(256));
    EXPECT_EQ(classify(da).width, DegreeWidth::kU8);
  }
  {
    CsrGraph g = graph::star(257);
    DegreeArray da(g);
    EXPECT_EQ(classify(da).width, DegreeWidth::kU16);
  }
  {
    CsrGraph g = graph::star(65536);
    DegreeArray da(g);
    EXPECT_EQ(classify(da).width, DegreeWidth::kU16);
  }
  {
    CsrGraph g = graph::star(65537);
    DegreeArray da(g);
    EXPECT_EQ(classify(da).width, DegreeWidth::kU32);
  }
}

TEST(Classify, WidthNarrowsAsTheBoundTightens) {
  // The bound is monotone: once the star's center enters the solution the
  // re-scanned bound drops to 1 and the class narrows to u8. (A narrower
  // re-classification is always sound; the adoption-time tag is just the
  // conservative one.)
  CsrGraph g = graph::star(300);
  DegreeArray da(g);
  ASSERT_EQ(classify(da).width, DegreeWidth::kU16);
  da.remove_into_solution(g, 0);
  // The query rescans (smallest-id present vertex, now an isolated leaf)
  // and tightens the cached bound to 0 on the way.
  ASSERT_EQ(da.max_degree_vertex(), 1);
  EXPECT_EQ(classify(da).width, DegreeWidth::kU8);
}

// ---- classify(): live rules --------------------------------------------

TEST(Classify, LiveRulesReflectFixpointMaskAndDirtyLog) {
  // cycle(9): every vertex has degree 2 and no triangle exists, so a full
  // incremental reduction removes nothing but establishes both fixpoint
  // bits with an empty log — the degree rules are provably dead.
  CsrGraph g = graph::cycle(9);
  DegreeArray da(g);
  ReduceWorkspace ws;
  reduce(g, da, BudgetPolicy::none(), ReduceSemantics::kIncremental, {},
         nullptr, &ws);
  ASSERT_TRUE(da.tracking());
  ASSERT_TRUE(da.dirty().empty());
  ASSERT_EQ(da.reduce_fixpoint_mask(), kRuleBitDegreeOne | kRuleBitDegreeTwo);
  EXPECT_EQ(classify(da).live_rules, 0);

  // A branch mutation drops two neighbors to degree 1: the dirty log now
  // holds degree-1 candidates, so the degree-one rule wakes up while the
  // degree-two rule stays dead (no candidate at its trigger).
  da.remove_into_solution(g, 0);
  ASSERT_FALSE(da.dirty().empty());
  EXPECT_EQ(classify(da).live_rules, kRuleBitDegreeOne);
}

TEST(Classify, EverythingLiveWithoutTrackingOrAfterOverflow) {
  CsrGraph g = graph::cycle(9);
  const std::uint8_t all = kRuleBitDegreeOne | kRuleBitDegreeTwo;
  DegreeArray da(g);
  EXPECT_EQ(classify(da).live_rules, all);  // no tracking: no log to trust

  // With a fixpoint mask but an overflowed log the refinement must not
  // apply either — the log is incomplete evidence.
  ReduceWorkspace ws;
  reduce(g, da, BudgetPolicy::none(), ReduceSemantics::kIncremental, {},
         nullptr, &ws);
  // Overflow the capped log: the cap is max(64, n/8) = 64 here, so 8 full
  // passes over the 9 vertices (72 marks) push it past the latch.
  for (int i = 0; i < 8; ++i)
    for (Vertex v = 0; v < da.num_vertices(); ++v) da.mark_dirty(v);
  ASSERT_TRUE(da.dirty_overflowed());
  EXPECT_EQ(classify(da).live_rules, all);
}

// ---- knob name round-trips ---------------------------------------------

TEST(KernelDispatchKnobs, ParseRoundTrips) {
  EXPECT_EQ(try_parse_kernel_dispatch("auto"), KernelDispatch::kAuto);
  EXPECT_EQ(try_parse_kernel_dispatch("generic"), KernelDispatch::kGeneric);
  EXPECT_EQ(try_parse_kernel_dispatch("off"), KernelDispatch::kGeneric);
  EXPECT_FALSE(try_parse_kernel_dispatch("fast").has_value());
  EXPECT_STREQ(kernel_dispatch_name(KernelDispatch::kAuto), "auto");
}

// ---- end-to-end: the knob is pure execution policy ----------------------

TEST(KernelDispatchEndToEnd, SameTreeAcrossDispatchAndBranchState) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const CsrGraph& g :
         {graph::gnp(40, 0.12, seed + 1),
          graph::complement(graph::p_hat(22, 0.3, 0.8, seed + 1)),
          graph::barabasi_albert(34, 2, seed + 1)}) {
      for (ReduceSemantics semantics :
           {ReduceSemantics::kSerial, ReduceSemantics::kParallelSweep,
            ReduceSemantics::kIncremental}) {
        SequentialConfig base;
        base.semantics = semantics;
        base.kernel_dispatch = KernelDispatch::kGeneric;
        const SolveResult want = solve_sequential(g, base);

        for (KernelDispatch dispatch :
             {KernelDispatch::kGeneric, KernelDispatch::kAuto}) {
          for (BranchStateMode mode :
               {BranchStateMode::kUndoTrail, BranchStateMode::kCopy}) {
            SequentialConfig config = base;
            config.kernel_dispatch = dispatch;
            config.branch_state = mode;
            const SolveResult got = solve_sequential(g, config);
            EXPECT_EQ(got.best_size, want.best_size);
            EXPECT_EQ(got.tree_nodes, want.tree_nodes)
                << "dispatch=" << kernel_dispatch_name(dispatch);
            EXPECT_EQ(got.cover, want.cover);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gvc::vc

// Differential properties of the incremental reduction engine: kIncremental
// must be observationally IDENTICAL to kSerial — same resulting degree
// array (hence same covers), same per-rule removal counts — on every
// generator family, both for root reductions and, crucially, along
// branch-and-bound lineages where a child's reduction seeds from the dirty
// log its branch mutation left behind instead of a fresh |V| scan.

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/greedy.hpp"
#include "vc/oracle.hpp"
#include "vc/reductions.hpp"

namespace gvc::vc {
namespace {

using graph::CsrGraph;

std::vector<CsrGraph> family_instances(std::uint64_t seed) {
  return {
      graph::gnp(40, 0.12, seed + 1),
      graph::complement(graph::p_hat(24, 0.3, 0.8, seed + 1)),
      graph::barabasi_albert(36, 2, seed + 1),
      graph::watts_strogatz(36, 2, 0.3, seed + 1),
      graph::power_grid(40, 0.4, seed + 1),
      graph::bipartite(12, 14, 40, seed + 1),
      graph::random_tree(36, seed + 1),
  };
}

void expect_same_state(const DegreeArray& serial, const DegreeArray& inc,
                       const char* where) {
  ASSERT_TRUE(std::ranges::equal(serial.raw(), inc.raw())) << where;
  EXPECT_EQ(serial.solution_size(), inc.solution_size()) << where;
  EXPECT_EQ(serial.num_edges(), inc.num_edges()) << where;
  EXPECT_EQ(serial.solution(), inc.solution()) << where;
}

TEST(IncrementalDifferential, RootReductionIdenticalToSerialAcrossFamilies) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    std::size_t family = 0;
    for (const CsrGraph& g : family_instances(seed * 101)) {
      const int ub = greedy_mvc(g).size;
      for (const BudgetPolicy& policy :
           {BudgetPolicy::none(), BudgetPolicy::mvc(ub),
            BudgetPolicy::pvc(std::max(1, ub - 1))}) {
        DegreeArray serial(g);
        DegreeArray inc(g);
        ReduceWorkspace ws;
        ReduceStats s_serial =
            reduce(g, serial, policy, ReduceSemantics::kSerial);
        ReduceStats s_inc =
            reduce(g, inc, policy, ReduceSemantics::kIncremental, {}, nullptr,
                   &ws);
        expect_same_state(serial, inc, "root reduction");
        EXPECT_EQ(s_serial.total_removed(), s_inc.total_removed())
            << "family " << family << " seed " << seed;
        EXPECT_EQ(s_serial.degree_one_removed, s_inc.degree_one_removed);
        EXPECT_EQ(s_serial.degree_two_removed, s_inc.degree_two_removed);
        EXPECT_EQ(s_serial.high_degree_removed, s_inc.high_degree_removed);
        inc.check_consistency(g);
      }
      ++family;
    }
  }
}

// Walks one branch-and-bound lineage: reduce, branch (alternating between
// the vmax child and the neighbors child), reduce again — with the serial
// array reduced from scratch each node and the incremental array seeding
// from the branch mutation's dirty log. Every node along the path must
// agree exactly.
TEST(IncrementalDifferential, BranchLineageSeedsFromDirtyLog) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    std::size_t family = 0;
    for (const CsrGraph& g : family_instances(seed * 77 + 5)) {
      const int ub = greedy_mvc(g).size;
      const BudgetPolicy policy = BudgetPolicy::mvc(ub);
      DegreeArray serial(g);
      DegreeArray inc(g);
      ReduceWorkspace ws;
      int depth = 0;
      for (;;) {
        ReduceStats s_serial =
            reduce(g, serial, policy, ReduceSemantics::kSerial);
        ReduceStats s_inc = reduce(g, inc, policy,
                                   ReduceSemantics::kIncremental, {}, nullptr,
                                   &ws);
        expect_same_state(serial, inc, "lineage node");
        EXPECT_EQ(s_serial.total_removed(), s_inc.total_removed())
            << "family " << family << " seed " << seed << " depth " << depth;
        // After the incremental fixpoint the log must be reset — children
        // seed from branch mutations only.
        EXPECT_TRUE(inc.dirty().empty());

        Vertex vmax = serial.max_degree_vertex();
        if (vmax < 0 || serial.degree(vmax) < 1) break;  // edgeless: done
        if (depth % 2 == 0) {
          serial.remove_into_solution(g, vmax);
          inc.remove_into_solution(g, vmax);
        } else {
          serial.remove_neighbors_into_solution(g, vmax);
          inc.remove_neighbors_into_solution(g, vmax);
        }
        // The branch touched only vmax's (two-hop) neighborhood; the dirty
        // log must reflect a bounded change set, not the whole graph.
        EXPECT_FALSE(inc.dirty().empty());
        ++depth;
      }
      ++family;
    }
  }
}

// Copies mid-lineage must behave like the original: the dirty log and
// tracking flag are value state and travel with the node (this is what lets
// donated worklist entries keep their O(changed) seeding).
TEST(IncrementalDifferential, CopiedNodesKeepSeedingIncrementally) {
  CsrGraph g = graph::gnp(40, 0.15, 9);
  const BudgetPolicy policy = BudgetPolicy::none();
  DegreeArray da(g);
  ReduceWorkspace ws;
  reduce(g, da, policy, ReduceSemantics::kIncremental, {}, nullptr, &ws);
  Vertex vmax = da.max_degree_vertex();
  ASSERT_GE(vmax, 0);

  DegreeArray neighbors_child = da;  // copy carries tracking + empty log
  neighbors_child.remove_neighbors_into_solution(g, vmax);
  da.remove_into_solution(g, vmax);

  for (DegreeArray* child : {&neighbors_child, &da}) {
    DegreeArray serial_ref = *child;  // same pre-reduction state
    reduce(g, *child, policy, ReduceSemantics::kIncremental, {}, nullptr, &ws);
    reduce(g, serial_ref, policy, ReduceSemantics::kSerial);
    expect_same_state(serial_ref, *child, "copied child");
  }
}

TEST(IncrementalDifferential, RuleSubsetsMatchSerial) {
  CsrGraph g = graph::watts_strogatz(40, 3, 0.2, 3);
  const int ub = greedy_mvc(g).size;
  for (int mask = 0; mask < 8; ++mask) {
    RuleSet rules;
    rules.degree_one = (mask & 1) != 0;
    rules.degree_two_triangle = (mask & 2) != 0;
    rules.high_degree = (mask & 4) != 0;
    DegreeArray serial(g);
    DegreeArray inc(g);
    ReduceStats s_serial =
        reduce(g, serial, BudgetPolicy::mvc(ub), ReduceSemantics::kSerial,
               rules);
    ReduceStats s_inc = reduce(g, inc, BudgetPolicy::mvc(ub),
                               ReduceSemantics::kIncremental, rules);
    expect_same_state(serial, inc, "rule subset");
    EXPECT_EQ(s_serial.total_removed(), s_inc.total_removed())
        << "mask " << mask;
  }
}

// Enabling a rule that was disabled in the lineage's previous reduction
// must re-seed that rule with a full scan: vertices that qualified all
// along were never logged, so trusting the dirty log would miss them.
TEST(IncrementalDifferential, RuleEnabledMidLineageReseeds) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    CsrGraph g = graph::power_grid(40, 0.4, seed * 11 + 1);
    RuleSet no_deg1;
    no_deg1.degree_one = false;
    DegreeArray serial(g);
    DegreeArray inc(g);
    // First reduction without the degree-one rule leaves degree-1 vertices
    // standing, unlogged.
    reduce(g, serial, BudgetPolicy::none(), ReduceSemantics::kSerial, no_deg1);
    reduce(g, inc, BudgetPolicy::none(), ReduceSemantics::kIncremental,
           no_deg1);
    expect_same_state(serial, inc, "deg1-disabled reduction");
    // Second reduction with all rules: incremental must find them anyway.
    reduce(g, serial, BudgetPolicy::none(), ReduceSemantics::kSerial);
    reduce(g, inc, BudgetPolicy::none(), ReduceSemantics::kIncremental);
    expect_same_state(serial, inc, "deg1-re-enabled reduction");
  }
}

// A standalone incremental rule call on a tracked array whose dirty log has
// overflowed must still match kSerial: the latched overflow silences the
// logging the rule's own cascade feed depends on unless it is cleared.
TEST(IncrementalDifferential, StandaloneRuleOnOverflowedLogMatchesSerial) {
  // A 70-clique (so each removal dirties ~69 vertices, overflowing the
  // max(64, |V|/8) cap) with a 100-vertex path attached to vertex 0.
  graph::GraphBuilder b(170);
  for (Vertex u = 0; u < 70; ++u)
    for (Vertex v = u + 1; v < 70; ++v) b.add_edge(u, v);
  b.add_edge(0, 70);
  for (Vertex v = 70; v < 169; ++v) b.add_edge(v, v + 1);
  CsrGraph g = b.build();

  DegreeArray inc(g);
  inc.enable_tracking();
  inc.remove_into_solution(g, 1);
  inc.remove_into_solution(g, 2);
  ASSERT_TRUE(inc.dirty_overflowed());
  DegreeArray serial = inc;  // same logical state

  EXPECT_EQ(apply_degree_one(g, serial, ReduceSemantics::kSerial),
            apply_degree_one(g, inc, ReduceSemantics::kIncremental));
  expect_same_state(serial, inc, "standalone on overflowed log");
}

TEST(IncrementalDifferential, StandaloneRulesMatchSerial) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    CsrGraph g = graph::gnp(30, 0.15, seed * 13 + 2);
    {
      DegreeArray a(g), b(g);
      EXPECT_EQ(apply_degree_one(g, a, ReduceSemantics::kSerial),
                apply_degree_one(g, b, ReduceSemantics::kIncremental));
      expect_same_state(a, b, "standalone degree-one");
      EXPECT_FALSE(b.tracking());  // tracking state restored
    }
    {
      DegreeArray a(g), b(g);
      EXPECT_EQ(apply_degree_two_triangle(g, a, ReduceSemantics::kSerial),
                apply_degree_two_triangle(g, b, ReduceSemantics::kIncremental));
      expect_same_state(a, b, "standalone degree-two");
    }
    {
      DegreeArray a(g), b(g);
      const int ub = greedy_mvc(g).size;
      EXPECT_EQ(
          apply_high_degree(g, a, BudgetPolicy::mvc(ub),
                            ReduceSemantics::kSerial),
          apply_high_degree(g, b, BudgetPolicy::mvc(ub),
                            ReduceSemantics::kIncremental));
      expect_same_state(a, b, "standalone high-degree");
    }
  }
}

// Soundness against the brute-force oracle, independently of the
// serial-equivalence property: reducing with kIncremental preserves the
// optimum on small instances of every family.
TEST(IncrementalDifferential, PreservesOptimumAgainstOracle) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    std::vector<CsrGraph> graphs = {
        graph::gnp(16, 0.25, seed * 31 + 1),
        graph::complement(graph::p_hat(15, 0.3, 0.8, seed + 1)),
        graph::barabasi_albert(16, 2, seed + 1),
        graph::watts_strogatz(16, 2, 0.3, seed + 1),
        graph::power_grid(16, 0.4, seed + 1),
        graph::bipartite(7, 9, 25, seed + 1),
        graph::random_tree(16, seed + 1),
    };
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const CsrGraph& g = graphs[i];
      const int opt = oracle_mvc_size(g);
      for (const BudgetPolicy& policy :
           {BudgetPolicy::none(), BudgetPolicy::mvc(opt + 1)}) {
        DegreeArray da(g);
        reduce(g, da, policy, ReduceSemantics::kIncremental);
        CsrGraph rest = graph::induced_subgraph(g, da.present_vertices());
        EXPECT_EQ(da.solution_size() + oracle_mvc_size(rest), opt)
            << "family " << i << " seed " << seed;
        da.check_consistency(g);
      }
    }
  }
}

}  // namespace
}  // namespace gvc::vc

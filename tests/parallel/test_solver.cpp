#include "parallel/solver.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "obs/metrics.hpp"
#include "vc/oracle.hpp"

namespace gvc::parallel {
namespace {

TEST(Solver, MethodNames) {
  EXPECT_STREQ(method_name(Method::kSequential), "Sequential");
  EXPECT_STREQ(method_name(Method::kStackOnly), "StackOnly");
  EXPECT_STREQ(method_name(Method::kHybrid), "Hybrid");
  EXPECT_STREQ(method_name(Method::kGlobalOnly), "GlobalOnly");
  EXPECT_STREQ(method_name(Method::kWorkStealing), "WorkStealing");
}

TEST(Solver, AllMethodsListsEveryMethodOnce) {
  EXPECT_EQ(all_methods().size(), 5u);
  EXPECT_EQ(all_methods().front(), Method::kSequential);
}

TEST(Solver, TryParseMethodReturnsNulloptOnUnknown) {
  EXPECT_EQ(try_parse_method("hybrid"), Method::kHybrid);
  EXPECT_EQ(try_parse_method("WORK-STEALING"), Method::kWorkStealing);
  EXPECT_EQ(try_parse_method("bogus"), std::nullopt);
  EXPECT_EQ(try_parse_method(""), std::nullopt);
}

TEST(Solver, ParseMethodSpellings) {
  EXPECT_EQ(parse_method("sequential"), Method::kSequential);
  EXPECT_EQ(parse_method("SEQ"), Method::kSequential);
  EXPECT_EQ(parse_method("StackOnly"), Method::kStackOnly);
  EXPECT_EQ(parse_method("stack-only"), Method::kStackOnly);
  EXPECT_EQ(parse_method("HYBRID"), Method::kHybrid);
  EXPECT_EQ(parse_method("globalonly"), Method::kGlobalOnly);
  EXPECT_EQ(parse_method("global-only"), Method::kGlobalOnly);
  EXPECT_EQ(parse_method("WorkStealing"), Method::kWorkStealing);
  EXPECT_EQ(parse_method("work-stealing"), Method::kWorkStealing);
}

TEST(SolverDeathTest, ParseMethodRejectsUnknown) {
  EXPECT_DEATH(parse_method("cuda"), "unknown method");
}

// The headline integration property: the code versions (the paper's three
// plus the two study baselines) are interchangeable in their answers on
// every instance class.
class AllMethodsTest : public ::testing::TestWithParam<Method> {};
INSTANTIATE_TEST_SUITE_P(Methods, AllMethodsTest,
                         ::testing::Values(Method::kSequential,
                                           Method::kStackOnly, Method::kHybrid,
                                           Method::kGlobalOnly,
                                           Method::kWorkStealing),
                         [](const auto& info) {
                           return method_name(info.param);
                         });

ParallelConfig small_config() {
  ParallelConfig c;
  c.device = device::DeviceSpec::host_scaled();
  c.grid_override = 4;
  c.start_depth = 3;
  c.worklist_capacity = 128;
  return c;
}

TEST_P(AllMethodsTest, MvcMatchesOracleAcrossFamilies) {
  const Method method = GetParam();
  std::vector<graph::CsrGraph> graphs = {
      graph::complement(graph::p_hat(22, 0.3, 0.8, 1)),  // dense complement
      graph::gnp(26, 0.2, 2),                            // sparse random
      graph::barabasi_albert(26, 3, 3),                  // power law
      graph::watts_strogatz(24, 2, 0.2, 4),              // small world
      graph::power_grid(28, 0.4, 5),                     // quasi-tree
      graph::bipartite(10, 14, 60, 6),                   // bipartite
      graph::random_tree(30, 7),                         // tree
  };
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& g = graphs[i];
    ParallelResult r = solve(g, method, small_config());
    EXPECT_EQ(r.best_size, vc::oracle_mvc_size(g)) << "family " << i;
    EXPECT_TRUE(graph::is_vertex_cover(g, r.cover)) << "family " << i;
  }
}

TEST_P(AllMethodsTest, PvcAgreesWithOracleAroundMin) {
  const Method method = GetParam();
  auto g = graph::gnp(24, 0.3, 9);
  int min = vc::oracle_mvc_size(g);
  for (int k : {min - 1, min, min + 1}) {
    if (k <= 0) continue;
    ParallelConfig c = small_config();
    c.problem = vc::Problem::kPvc;
    c.k = k;
    ParallelResult r = solve(g, method, c);
    EXPECT_EQ(r.has_cover(), vc::oracle_pvc(g, k)) << "k=" << k;
    if (r.has_cover()) {
      EXPECT_LE(r.best_size, k);
      EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
    }
  }
}

TEST_P(AllMethodsTest, PvcSweepOverAllK) {
  // Full k sweep: found(k) must be the oracle's indicator function, which
  // in particular is monotone in k.
  const Method method = GetParam();
  auto g = graph::complement(graph::p_hat(18, 0.35, 0.85, 12));
  int opt = vc::oracle_mvc_size(g);
  for (int k = 1; k <= std::min(opt + 2, g.num_vertices()); ++k) {
    ParallelConfig c = small_config();
    c.problem = vc::Problem::kPvc;
    c.k = k;
    ParallelResult r = solve(g, method, c);
    EXPECT_EQ(r.has_cover(), k >= opt) << "k=" << k << " opt=" << opt;
  }
}

TEST_P(AllMethodsTest, SimSecondsPopulatedAndPlausible) {
  auto g = graph::complement(graph::p_hat(24, 0.35, 0.85, 14));
  ParallelResult r = solve(g, GetParam(), small_config());
  EXPECT_GE(r.sim_seconds, 0.0);
  if (GetParam() == Method::kSequential) {
    EXPECT_DOUBLE_EQ(r.sim_seconds, r.seconds);
  } else {
    // Simulated parallel time never exceeds total work by construction
    // (it is the max per-SM share of the measured CPU work).
    EXPECT_LE(r.sim_seconds,
              static_cast<double>([&] {
                std::uint64_t total = 0;
                for (const auto& b : r.launch.blocks) total += b.cpu_ns;
                return total;
              }()) * 1e-9 + 1e-9);
  }
}

TEST_P(AllMethodsTest, GreedyBoundReportedAndValid) {
  auto g = graph::gnp(30, 0.25, 10);
  ParallelResult r = solve(g, GetParam(), small_config());
  EXPECT_GE(r.greedy_upper_bound, r.best_size);
  EXPECT_GT(r.tree_nodes, 0u);
  EXPECT_GE(r.seconds, 0.0);
}

TEST_P(AllMethodsTest, OptimumInvariantUnderBranchStrategy) {
  // Branch-strategy soundness holds through every traversal engine, not
  // just the sequential one.
  auto g = graph::gnp(26, 0.2, 15);
  int opt = vc::oracle_mvc_size(g);
  for (vc::BranchStrategy strat : vc::all_branch_strategies()) {
    ParallelConfig c = small_config();
    c.branch = strat;
    c.branch_seed = 99;
    ParallelResult r = solve(g, GetParam(), c);
    EXPECT_EQ(r.best_size, opt) << vc::branch_strategy_name(strat);
    EXPECT_TRUE(graph::is_vertex_cover(g, r.cover))
        << vc::branch_strategy_name(strat);
  }
}

// Node counts add up under every stop: the search's total (tree_nodes) is
// the sum of the blocks' counts, a node refused by the budget is counted
// nowhere, and a stop a block sees before its first node admits none.
class BlockMethodsTest : public ::testing::TestWithParam<Method> {
 protected:
  static const graph::CsrGraph& graph() {
    static const graph::CsrGraph g =
        graph::complement(graph::p_hat(40, 0.3, 0.9, 31));
    return g;
  }
  static ParallelConfig config() {
    ParallelConfig c;
    c.grid_override = 4;
    return c;
  }
  static void expect_at_most_one_node_per_block(const ParallelResult& r) {
    for (const auto& b : r.launch.blocks)
      EXPECT_LE(b.nodes_visited, 1u) << "block " << b.block_id;
  }
};
INSTANTIATE_TEST_SUITE_P(Methods, BlockMethodsTest,
                         ::testing::Values(Method::kStackOnly, Method::kHybrid,
                                           Method::kGlobalOnly,
                                           Method::kWorkStealing),
                         [](const auto& info) {
                           return method_name(info.param);
                         });

TEST_P(BlockMethodsTest, NodeBudgetCountsAddUp) {
  vc::SolveControl control;
  control.limits.max_tree_nodes = 5;
  const ParallelResult r = solve(graph(), GetParam(), config(), &control);
  EXPECT_EQ(r.outcome, vc::Outcome::kFeasible);
  EXPECT_EQ(r.tree_nodes, 5u);
  EXPECT_EQ(r.tree_nodes, r.launch.total_nodes());
}

TEST_P(BlockMethodsTest, PreCancelledCountsAddUp) {
  vc::SolveControl control;
  control.cancel();
  const ParallelResult r = solve(graph(), GetParam(), config(), &control);
  EXPECT_EQ(r.outcome, vc::Outcome::kCancelled);
  EXPECT_EQ(r.tree_nodes, r.launch.total_nodes());
  expect_at_most_one_node_per_block(r);
}

TEST_P(BlockMethodsTest, PassedDeadlineCountsAddUp) {
  vc::SolveControl control;
  control.set_deadline(vc::SolveControl::now_s() - 1.0);
  const ParallelResult r = solve(graph(), GetParam(), config(), &control);
  EXPECT_EQ(r.outcome, vc::Outcome::kDeadline);
  EXPECT_EQ(r.tree_nodes, r.launch.total_nodes());
  expect_at_most_one_node_per_block(r);
}

TEST_P(BlockMethodsTest, NoWorkspaceMatchesWarmWorkspace) {
  // Without a SolveWorkspace the launch frame runs on a temporary one. On a
  // serialized device the trees are exact, so a cold solve must match one on
  // a workspace warmed by a larger graph and by this one.
  ParallelConfig c;
  c.device.num_sms = 1;
  c.device.max_blocks_per_sm = 1;
  c.grid_override = 1;
  c.start_depth = 2;
  SolveWorkspace ws;
  solve(graph::barabasi_albert(120, 4, 3), GetParam(), c, nullptr, &ws);
  solve(graph(), GetParam(), c, nullptr, &ws);
  const ParallelResult warm = solve(graph(), GetParam(), c, nullptr, &ws);
  const ParallelResult cold = solve(graph(), GetParam(), c);
  EXPECT_EQ(cold.outcome, vc::Outcome::kOptimal);
  EXPECT_EQ(cold.tree_nodes, warm.tree_nodes);
  EXPECT_EQ(cold.best_size, warm.best_size);
  EXPECT_EQ(cold.cover, warm.cover);
}

TEST(Solver, CheckSolvePlansLikeTheSolver) {
  // star(1000): the greedy cover is the hub, so the solver's stack is 3
  // degree arrays deep while a |V|-deep one fits no block. The check must
  // take the greedy pass to accept it, and report the grid it launches.
  const auto g = graph::star(1000);
  ParallelConfig c;
  c.device.global_mem_bytes = 64 * 1024;
  int threads = 0;
  ASSERT_EQ(check_solve(g, Method::kHybrid, c, &threads), nullptr);
  EXPECT_EQ(static_cast<std::size_t>(threads),
            solve(g, Method::kHybrid, c).launch.blocks.size());
  c.device.global_mem_bytes = 1024;
  EXPECT_STREQ(check_solve(g, Method::kHybrid, c, &threads),
               "graph too large for device global memory");
}

TEST(Solver, ImbalanceRatioRecordedOncePerMultiBlockLaunch) {
  // gvc_solve_imbalance_ratio gets one sample per launch of >= 2 blocks:
  // max over mean of the blocks' CPU time, so never below 1.0. Sequential
  // runs no launch and records nothing.
  const char* kName = "gvc_solve_imbalance_ratio";
  auto g = graph::complement(graph::p_hat(26, 0.3, 0.8, 29));
  ParallelConfig c;
  c.grid_override = 4;

  const obs::Histogram::Snapshot before =
      obs::Registry::global().histogram_snapshot(kName);
  ParallelResult r = solve(g, Method::kWorkStealing, c);
  ASSERT_EQ(r.launch.blocks.size(), 4u);
  const obs::Histogram::Snapshot after =
      obs::Registry::global().histogram_snapshot(kName);
  ASSERT_EQ(after.count, before.count + 1);
  const double sample =
      static_cast<double>(after.sum_ns - before.sum_ns) / 1e9;
  EXPECT_GE(sample, 1.0);
  EXPECT_LE(sample, 4.0);  // max/mean cannot exceed the block count

  solve(g, Method::kSequential, c);
  EXPECT_EQ(obs::Registry::global().histogram_snapshot(kName).count,
            after.count);
}

}  // namespace
}  // namespace gvc::parallel

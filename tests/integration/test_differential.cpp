// Differential testing across the full configuration space: every traversal
// engine × reduction semantics × branching strategy × rule subset must
// agree with the serial reference on the optimum (MVC) and the indicator
// function (PVC). Randomized over graph families and seeds; sizes are kept
// small so the whole sweep stays inside the CI budget.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "parallel/solver.hpp"
#include "vc/sequential.hpp"

namespace gvc {
namespace {

using graph::CsrGraph;

CsrGraph make_instance(int family, std::uint64_t seed) {
  switch (family % 5) {
    case 0: return graph::gnp(26, 0.18, seed);
    case 1: return graph::complement(graph::p_hat(20, 0.3, 0.8, seed));
    case 2: return graph::barabasi_albert(24, 2, seed);
    case 3: return graph::watts_strogatz(24, 2, 0.3, seed);
    default: return graph::power_grid(26, 0.4, seed);
  }
}

parallel::ParallelConfig tiny_config() {
  parallel::ParallelConfig c;
  c.device = device::DeviceSpec::host_scaled();
  c.grid_override = 3;
  c.start_depth = 3;
  c.worklist_capacity = 64;
  return c;
}

class DifferentialSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesSeeds, DifferentialSweep,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 3)),
    [](const auto& info) {
      return "family" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(DifferentialSweep, EveryEngineEveryConfigAgreesOnMvc) {
  auto [family, seed] = GetParam();
  CsrGraph g = make_instance(family, static_cast<std::uint64_t>(seed) * 13 + 1);

  vc::SequentialConfig ref;
  const int expected = vc::solve_sequential(g, ref).best_size;

  // Full cross of engine × rule semantics × branch-state mode × branching
  // strategy: no single axis choice may move the optimum. The branch-state
  // axis rides on every semantics (the trail interacts with the dirty log
  // only under kIncremental, but must stay exact under all three).
  for (parallel::Method method : parallel::all_methods()) {
    for (vc::ReduceSemantics semantics :
         {vc::ReduceSemantics::kSerial, vc::ReduceSemantics::kParallelSweep,
          vc::ReduceSemantics::kIncremental}) {
      for (vc::BranchStateMode mode : vc::all_branch_state_modes()) {
        for (vc::BranchStrategy branch :
             {vc::BranchStrategy::kMaxDegree, vc::BranchStrategy::kRandom}) {
          parallel::ParallelConfig c = tiny_config();
          c.semantics = semantics;
          c.branch_state = mode;
          c.branch = branch;
          c.branch_seed = static_cast<std::uint64_t>(seed);
          parallel::ParallelResult r = parallel::solve(g, method, c);
          EXPECT_EQ(r.best_size, expected)
              << parallel::method_name(method) << " semantics "
              << static_cast<int>(semantics) << " mode "
              << vc::branch_state_mode_name(mode) << " branch "
              << vc::branch_strategy_name(branch);
          EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
        }
      }
    }
  }
}

TEST_P(DifferentialSweep, RuleSubsetsNeverChangeTheOptimum) {
  auto [family, seed] = GetParam();
  CsrGraph g = make_instance(family, static_cast<std::uint64_t>(seed) * 17 + 3);

  vc::SequentialConfig ref;
  const int expected = vc::solve_sequential(g, ref).best_size;

  // All 8 rule subsets through the Hybrid engine (rules only accelerate).
  for (int mask = 0; mask < 8; ++mask) {
    parallel::ParallelConfig c = tiny_config();
    c.rules.degree_one = (mask & 1) != 0;
    c.rules.degree_two_triangle = (mask & 2) != 0;
    c.rules.high_degree = (mask & 4) != 0;
    parallel::ParallelResult r =
        parallel::solve(g, parallel::Method::kHybrid, c);
    EXPECT_EQ(r.best_size, expected) << "rule mask " << mask;
  }
}

TEST_P(DifferentialSweep, PvcIndicatorMatchesAcrossEngines) {
  auto [family, seed] = GetParam();
  CsrGraph g = make_instance(family, static_cast<std::uint64_t>(seed) * 19 + 7);

  vc::SequentialConfig ref;
  const int min = vc::solve_sequential(g, ref).best_size;
  if (min < 2) return;

  for (parallel::Method method : parallel::all_methods()) {
    for (int k : {min - 1, min}) {
      for (vc::BranchStateMode mode : vc::all_branch_state_modes()) {
        parallel::ParallelConfig c = tiny_config();
        c.problem = vc::Problem::kPvc;
        c.k = k;
        c.branch_state = mode;
        parallel::ParallelResult r = parallel::solve(g, method, c);
        EXPECT_EQ(r.has_cover(), k >= min)
            << parallel::method_name(method) << " k=" << k << " min=" << min
            << " mode " << vc::branch_state_mode_name(mode);
      }
    }
  }
}

}  // namespace
}  // namespace gvc

// Cross-module integration tests: catalog instances through the full solver
// pipeline, kernelization before a solve, IO round trips, and
// instrumentation consistency — the paths the bench binaries and examples
// exercise, pinned down as assertions.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "harness/runner.hpp"
#include "parallel/solver.hpp"
#include "util/stats.hpp"
#include "vc/kernelization.hpp"

namespace gvc {
namespace {

harness::RunnerOptions smoke_options() {
  harness::RunnerOptions o;
  o.limits.max_tree_nodes = 500000;
  o.device = device::DeviceSpec::host_scaled();
  o.worklist_capacity = 512;
  o.start_depth = 4;
  return o;
}

TEST(EndToEnd, AllMethodsAgreeAcrossCatalogFamilies) {
  auto cat = harness::paper_catalog(harness::Scale::kSmoke);
  harness::Runner runner(smoke_options());
  // One representative per family keeps this suite fast. (LastFM/vc-exact
  // style instances are deliberately hard for Sequential — Table I's
  // ">limit" rows — so the agreement check uses tractable representatives.)
  for (const char* name : {"p_hat_300_3", "movielens-100k", "US_power_grid",
                           "Sister_Cities"}) {
    const auto& inst = harness::find_instance(cat, name);
    int min = runner.min_cover(inst);
    for (auto method : {parallel::Method::kSequential,
                        parallel::Method::kStackOnly,
                        parallel::Method::kHybrid}) {
      auto r = runner.run(inst, method, harness::ProblemInstance::kMvc);
      ASSERT_TRUE(r.complete()) << name << " " << parallel::method_name(method);
      EXPECT_EQ(r.best_size, min) << name << " " << parallel::method_name(method);
      EXPECT_TRUE(graph::is_vertex_cover(inst.graph(), r.cover));
    }
  }
}

TEST(EndToEnd, KernelizeThenHybridMatchesDirectSolve) {
  auto cat = harness::paper_catalog(harness::Scale::kSmoke);
  const auto& inst = harness::find_instance(cat, "Sister_Cities");
  const auto& g = inst.graph();

  harness::Runner runner(smoke_options());
  int direct = runner.min_cover(inst);

  vc::NtKernel nt = vc::nemhauser_trotter(g);
  EXPECT_LT(nt.kernel.num_vertices(), g.num_vertices());  // it shrinks

  parallel::ParallelConfig config;
  config.device = device::DeviceSpec::host_scaled();
  config.grid_override = 4;
  auto kernel_result = nt.kernel.num_edges() == 0
                           ? parallel::ParallelResult{}
                           : parallel::solve(nt.kernel,
                                             parallel::Method::kHybrid, config);
  auto lifted = vc::lift_cover(nt, kernel_result.cover);
  EXPECT_EQ(static_cast<int>(lifted.size()), direct);
  EXPECT_TRUE(graph::is_vertex_cover(g, lifted));
  EXPECT_GE(direct, nt.lp_lower_bound);
}

TEST(EndToEnd, DimacsRoundTripPreservesSolverAnswer) {
  auto cat = harness::paper_catalog(harness::Scale::kSmoke);
  const auto& inst = harness::find_instance(cat, "p_hat_300_2");
  std::string path = testing::TempDir() + "/gvc_e2e.col";
  graph::save_graph(path, inst.graph());
  auto loaded = graph::load_graph(path);
  EXPECT_EQ(loaded, inst.graph());

  harness::Runner runner(smoke_options());
  parallel::ParallelConfig config = runner.make_config(
      harness::ProblemInstance::kMvc, 0);
  auto a = parallel::solve(inst.graph(), parallel::Method::kHybrid, config);
  auto b = parallel::solve(loaded, parallel::Method::kHybrid, config);
  EXPECT_EQ(a.best_size, b.best_size);
  std::remove(path.c_str());
}

TEST(EndToEnd, InstrumentationIsInternallyConsistent) {
  auto cat = harness::paper_catalog(harness::Scale::kSmoke);
  harness::Runner runner(smoke_options());
  const auto& inst = harness::find_instance(cat, "p_hat_500_1");
  auto r = runner.run(inst, parallel::Method::kHybrid,
                      harness::ProblemInstance::kMvc);
  ASSERT_TRUE(r.complete());

  // Node accounting agrees between SharedSearch and per-block stats.
  EXPECT_EQ(r.launch.total_nodes(), r.tree_nodes);

  // Normalized per-SM load averages to 1 and every SM is represented.
  auto load = r.launch.load_per_sm_normalized();
  EXPECT_EQ(static_cast<int>(load.size()), r.launch.num_sms);
  double sum = 0;
  for (double x : load) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(load.size()), 1.0, 1e-9);

  // Activity fractions form a distribution.
  auto frac = r.launch.mean_activity_fractions();
  double fsum = 0;
  for (double f : frac) fsum += f;
  EXPECT_NEAR(fsum, 1.0, 1e-6);

  // Worklist conservation: everything added was removed.
  EXPECT_EQ(r.worklist.adds, r.worklist.removes);
}

TEST(EndToEnd, HybridBeatsOrMatchesStackOnlyNodesOnImbalancedInstance) {
  // The load-balancing claim at node granularity: on a dense complement
  // instance Hybrid should not visit dramatically more nodes, and its
  // per-SM imbalance (CV) must be lower.
  auto cat = harness::paper_catalog(harness::Scale::kSmoke);
  harness::Runner runner(smoke_options());
  // p_hat_*_3 complements are the hard rows: trees big enough that work
  // distribution actually matters (a near-root solve would trivially put
  // all load on one SM for both versions).
  const auto& inst = harness::find_instance(cat, "p_hat_500_3");
  auto hy = runner.run(inst, parallel::Method::kHybrid,
                       harness::ProblemInstance::kMvc);
  auto st = runner.run(inst, parallel::Method::kStackOnly,
                       harness::ProblemInstance::kMvc);
  ASSERT_TRUE(hy.complete());
  ASSERT_TRUE(st.complete());
  ASSERT_GT(hy.tree_nodes, 200u) << "instance too easy to compare balance";
  double cv_h = util::coeff_of_variation(hy.launch.load_per_sm_normalized());
  double cv_s = util::coeff_of_variation(st.launch.load_per_sm_normalized());
  EXPECT_LT(cv_h, cv_s);
}

}  // namespace
}  // namespace gvc

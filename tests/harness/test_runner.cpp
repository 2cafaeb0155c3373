#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include "graph/ops.hpp"

namespace gvc::harness {
namespace {

RunnerOptions smoke_options() {
  RunnerOptions o;
  o.limits.max_tree_nodes = 200000;
  o.device = device::DeviceSpec::host_scaled();
  o.worklist_capacity = 512;
  o.start_depth = 4;
  return o;
}

TEST(Runner, MinCoverIsCachedAndValid) {
  auto cat = paper_catalog(Scale::kSmoke);
  Runner runner(smoke_options());
  const Instance& inst = find_instance(cat, "US_power_grid");
  int min1 = runner.min_cover(inst);
  int min2 = runner.min_cover(inst);
  EXPECT_EQ(min1, min2);
  EXPECT_GT(min1, 0);
  EXPECT_LT(min1, inst.graph().num_vertices());
}

TEST(Runner, AllMethodsAgreeOnASmokeInstance) {
  auto cat = paper_catalog(Scale::kSmoke);
  Runner runner(smoke_options());
  const Instance& inst = find_instance(cat, "p_hat_300_3");
  int min = runner.min_cover(inst);

  for (auto method : {parallel::Method::kSequential,
                      parallel::Method::kStackOnly, parallel::Method::kHybrid}) {
    auto r = runner.run(inst, method, ProblemInstance::kMvc);
    ASSERT_TRUE(r.complete()) << parallel::method_name(method);
    EXPECT_EQ(r.best_size, min) << parallel::method_name(method);
    EXPECT_TRUE(graph::is_vertex_cover(inst.graph(), r.cover));
  }
}

TEST(Runner, PvcRowsBehaveAsInTableI) {
  auto cat = paper_catalog(Scale::kSmoke);
  Runner runner(smoke_options());
  const Instance& inst = find_instance(cat, "p_hat_300_3");

  auto below =
      runner.run(inst, parallel::Method::kHybrid, ProblemInstance::kPvcMinMinus1);
  EXPECT_FALSE(below.has_cover());
  EXPECT_EQ(below.outcome, vc::Outcome::kInfeasible);

  auto at = runner.run(inst, parallel::Method::kHybrid, ProblemInstance::kPvcMin);
  EXPECT_TRUE(at.has_cover());
  EXPECT_EQ(at.outcome, vc::Outcome::kOptimal);
  EXPECT_LE(at.best_size, runner.min_cover(inst));

  auto above =
      runner.run(inst, parallel::Method::kHybrid, ProblemInstance::kPvcMinPlus1);
  EXPECT_TRUE(above.has_cover());
}

TEST(Runner, TimeCellFormats) {
  parallel::ParallelResult done;
  done.seconds = 1.5;
  EXPECT_EQ(Runner::time_cell(done), "1.500");
  parallel::ParallelResult out;
  out.outcome = vc::Outcome::kFeasible;
  EXPECT_EQ(Runner::time_cell(out), ">feasible");
  out.outcome = vc::Outcome::kCancelled;
  EXPECT_EQ(Runner::time_cell(out), ">cancelled");
}

TEST(Runner, ProblemInstanceNames) {
  EXPECT_STREQ(problem_instance_name(ProblemInstance::kMvc), "MVC");
  EXPECT_STREQ(problem_instance_name(ProblemInstance::kPvcMin), "PVC k=min");
}

TEST(Runner, MakeConfigCarriesOptions) {
  RunnerOptions o = smoke_options();
  o.worklist_threshold_frac = 0.75;
  o.start_depth = 7;
  Runner runner(o);
  auto c = runner.make_config(ProblemInstance::kPvcMin, 5);
  EXPECT_EQ(c.problem, vc::Problem::kPvc);
  EXPECT_EQ(c.k, 5);
  EXPECT_EQ(c.start_depth, 7);
  EXPECT_DOUBLE_EQ(c.worklist_threshold_frac, 0.75);
}

}  // namespace
}  // namespace gvc::harness

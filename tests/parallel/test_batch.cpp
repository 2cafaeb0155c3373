#include "parallel/batch.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/corpus.hpp"
#include "graph/generators.hpp"
#include "parallel/solver.hpp"
#include "vc/solve_types.hpp"

namespace gvc::parallel {
namespace {

std::vector<graph::CsrGraph> make_corpus(int count, unsigned base_seed) {
  std::vector<graph::CsrGraph> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int n = 8 + (i % 13);
    const double p = 0.2 + 0.05 * (i % 7);
    corpus.push_back(graph::gnp(n, p, base_seed + static_cast<unsigned>(i)));
  }
  return corpus;
}

std::vector<const graph::CsrGraph*> views(
    const std::vector<graph::CsrGraph>& corpus) {
  std::vector<const graph::CsrGraph*> ptrs;
  ptrs.reserve(corpus.size());
  for (const auto& g : corpus) ptrs.push_back(&g);
  return ptrs;
}

// The contract of batch.hpp: per-graph results are BIT-identical to an
// individual Method::kSequential solve of the same config — same cover,
// same size, same tree shape.
TEST(SolveBatch, BitIdenticalToIndividualSequentialSolves) {
  auto corpus = make_corpus(40, 900);
  ParallelConfig config;
  SolveWorkspace batch_ws;
  BatchResult batch = solve_batch(views(corpus), config, nullptr, &batch_ws);
  ASSERT_EQ(batch.results.size(), corpus.size());

  SolveWorkspace solo_ws;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ParallelResult solo =
        solve(corpus[i], Method::kSequential, config, nullptr, &solo_ws);
    const vc::SolveResult& b = batch.results[i];
    EXPECT_EQ(b.outcome, solo.outcome) << i;
    EXPECT_EQ(b.best_size, solo.best_size) << i;
    EXPECT_EQ(b.cover, solo.cover) << i;
    EXPECT_EQ(b.tree_nodes, solo.tree_nodes) << i;
    vc::check_result(corpus[i], b);
  }
}

// Every parallel method is exact, so the batch path's optima must agree
// with all of them (covers may differ; sizes may not).
TEST(SolveBatch, OptimaAgreeAcrossMethods) {
  auto corpus = make_corpus(10, 4200);
  ParallelConfig config;
  BatchResult batch = solve_batch(views(corpus), config);
  for (Method m : all_methods()) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      ParallelResult r = solve(corpus[i], m, config);
      EXPECT_EQ(r.best_size, batch.results[i].best_size)
          << method_name(m) << " graph " << i;
    }
  }
}

TEST(SolveBatch, EmptyBatchYieldsEmptyResult) {
  BatchResult r = solve_batch({}, ParallelConfig{});
  EXPECT_TRUE(r.results.empty());
  EXPECT_EQ(r.total_tree_nodes(), 0u);
}

TEST(SolveBatch, OneBlockPerGraphWithPooledSlots) {
  auto corpus = make_corpus(100, 77);
  ParallelConfig config;
  SolveWorkspace ws;
  BatchResult batch = solve_batch(views(corpus), config, nullptr, &ws);
  // One BlockStats per graph...
  ASSERT_EQ(batch.launch.blocks.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(batch.launch.blocks[i].block_id, static_cast<int>(i));
    EXPECT_EQ(batch.launch.blocks[i].nodes_visited,
              batch.results[i].tree_nodes);
  }
  // ...but the workspace pool stays resident-sized, not corpus-sized: that
  // amortization is the point of the batch path.
  EXPECT_LE(ws.block_count(), static_cast<std::size_t>(
                                  config.device.max_resident_blocks()));
  EXPECT_LT(ws.block_count(), corpus.size());
}

// A corpus stream holding a 20k-vertex, one-edge record beside a small one
// used to abort in plan_launch: the batch planned every block for a
// |V|max-deep stack of degree arrays (1.6 GB against a 1 GB device). A
// Sequential block on that record holds three arrays, so the batch solves.
TEST(SolveBatch, SparseWideRecordPlansFromWhatBlocksHold) {
  std::istringstream stream("p edge 3 2\ne 1 2\ne 2 3\n"
                            "p edge 20000 1\ne 1 2\n");
  graph::CorpusReader reader(stream);
  std::vector<graph::CsrGraph> corpus;
  while (auto rec = reader.next()) corpus.push_back(std::move(rec->graph));
  ASSERT_EQ(corpus.size(), 2u);
  ASSERT_EQ(corpus[1].num_vertices(), 20000);

  ParallelConfig config;
  config.device = device::DeviceSpec::host_scaled();
  BatchResult batch = solve_batch(views(corpus), config);
  EXPECT_GT(batch.plan.block_size, 0);
  EXPECT_GT(batch.plan.grid_size, 0);
  ASSERT_EQ(batch.results.size(), 2u);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(batch.results[i].outcome, vc::Outcome::kOptimal) << i;
    EXPECT_EQ(batch.results[i].best_size, 1) << i;
    vc::check_result(corpus[i], batch.results[i]);
  }
}

// A record whose footprint exceeds the device's global memory still runs,
// at one resident slot: the batch plan never aborts the process.
TEST(SolveBatch, RecordHeavierThanDeviceMemoryStillSolves) {
  std::vector<graph::CsrGraph> corpus;
  corpus.push_back(graph::random_tree(400, 7));
  ParallelConfig config;
  config.device = device::DeviceSpec::host_scaled();
  // 401 degree arrays of 1.6 KB exceed a 64 KB device; one array fits.
  config.device.global_mem_bytes = 64 * 1024;
  BatchResult batch = solve_batch(views(corpus), config);
  EXPECT_EQ(batch.plan.grid_size, 1);
  ASSERT_EQ(batch.results.size(), 1u);
  EXPECT_EQ(batch.results[0].outcome, vc::Outcome::kOptimal);
  vc::check_result(corpus[0], batch.results[0]);
}

TEST(SolveBatch, GridOverrideCapsResidency) {
  auto corpus = make_corpus(12, 31);
  ParallelConfig config;
  config.grid_override = 2;
  SolveWorkspace ws;
  BatchResult batch = solve_batch(views(corpus), config, nullptr, &ws);
  ASSERT_EQ(batch.results.size(), corpus.size());
  EXPECT_LE(ws.block_count(), 2u);
  for (std::size_t i = 0; i < corpus.size(); ++i)
    vc::check_result(corpus[i], batch.results[i]);
}

// A shared control stops the whole batch: with an immediate cancel, blocks
// report a kCancelled outcome instead of running 100 searches.
TEST(SolveBatch, SharedControlCancelsAllBlocks) {
  auto corpus = make_corpus(20, 55);
  vc::SolveControl control;
  control.cancel();
  BatchResult batch = solve_batch(views(corpus), ParallelConfig{}, &control);
  ASSERT_EQ(batch.results.size(), corpus.size());
  int cancelled = 0;
  for (const auto& r : batch.results)
    if (r.outcome == vc::Outcome::kCancelled) ++cancelled;
  // Every block observes the latch at its first limit check.
  EXPECT_EQ(cancelled, static_cast<int>(corpus.size()));
}

// Per-graph node budgets: the limit bounds each block's search separately
// (not one shared pool). An interrupted MVC search reports kFeasible with
// the best-seen cover; a search that finished inside the budget reports a
// complete outcome. Either way every record still carries a valid cover.
TEST(SolveBatch, NodeLimitAppliesPerGraph) {
  auto corpus = make_corpus(10, 808);
  vc::SolveControl control;
  control.limits.max_tree_nodes = 1;
  BatchResult batch = solve_batch(views(corpus), ParallelConfig{}, &control);
  int interrupted = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& r = batch.results[i];
    EXPECT_TRUE(r.complete() || r.outcome == vc::Outcome::kFeasible) << i;
    ASSERT_TRUE(r.has_cover()) << i;
    vc::check_result(corpus[i], r);
    if (r.limit_hit()) ++interrupted;
  }
  // A one-node budget interrupts essentially every nontrivial instance; if
  // the budget were a shared pool this would still hold, so also check no
  // block ran an unbounded search.
  EXPECT_GT(interrupted, 0);
  for (const auto& b : batch.launch.blocks) EXPECT_LE(b.nodes_visited, 8u);
}

}  // namespace
}  // namespace gvc::parallel

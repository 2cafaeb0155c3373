#include "vc/search.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "graph/generators.hpp"
#include "vc/greedy.hpp"

namespace gvc::vc {
namespace {

vc::DegreeArray state_with_cover(const graph::CsrGraph& g, int removals) {
  vc::DegreeArray da(g);
  for (int i = 0; i < removals; ++i)
    da.remove_into_solution(g, da.max_degree_vertex());
  return da;
}

SharedSearch make_mvc(const graph::CsrGraph& g,
                      vc::SolveControl* control = nullptr) {
  auto greedy = vc::greedy_mvc(g);
  return SharedSearch(vc::Problem::kMvc, 0, greedy.size, greedy.cover,
                      control);
}

vc::SolveControl node_budget(std::uint64_t n) {
  vc::Limits limits;
  limits.max_tree_nodes = n;
  return vc::SolveControl(limits);
}

TEST(SharedSearch, InitialBestIsGreedy) {
  auto g = graph::complete(6);
  SharedSearch s = make_mvc(g);
  EXPECT_EQ(s.best(), 5);
  EXPECT_EQ(s.harvest().best_size, 5);
}

TEST(SharedSearch, OfferImprovesMonotonically) {
  auto g = graph::complete(8);
  SharedSearch s = make_mvc(g);  // greedy = 7
  EXPECT_FALSE(s.offer_cover(state_with_cover(g, 7)));  // equal: no improve
  // Removing 5 yields |S|=5 < 7: improves (not a valid full cover, but
  // offer_cover records solution size; callers only offer edgeless states —
  // here we exercise the counter semantics).
  EXPECT_TRUE(s.offer_cover(state_with_cover(g, 5)));
  EXPECT_EQ(s.best(), 5);
  EXPECT_FALSE(s.offer_cover(state_with_cover(g, 6)));  // worse: rejected
  EXPECT_EQ(s.best(), 5);
}

TEST(SharedSearch, HarvestReturnsCoverMatchingBest) {
  auto g = graph::complete(8);
  SharedSearch s = make_mvc(g);
  s.offer_cover(state_with_cover(g, 4));
  auto r = s.harvest();
  EXPECT_EQ(r.best_size, 4);
  EXPECT_EQ(r.cover.size(), 4u);
  EXPECT_TRUE(r.has_cover());
  EXPECT_EQ(r.outcome, vc::Outcome::kOptimal);
}

TEST(SharedSearch, ConcurrentOffersKeepMinimum) {
  auto g = graph::complete(32);
  SharedSearch s = make_mvc(g);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int size = 30; size > 8 + t; --size)
        s.offer_cover(state_with_cover(g, size));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(s.best(), 9);  // smallest offered across all threads
  EXPECT_EQ(s.harvest().cover.size(), 9u);
}

TEST(SharedSearch, PvcFoundLatchesFirstCover) {
  auto g = graph::complete(10);
  SharedSearch s(vc::Problem::kPvc, 9, vc::greedy_mvc(g).size,
                 vc::greedy_mvc(g).cover, nullptr);
  EXPECT_FALSE(s.pvc_found());
  s.set_pvc_found(state_with_cover(g, 7));
  EXPECT_TRUE(s.pvc_found());
  s.set_pvc_found(state_with_cover(g, 5));  // later call loses
  auto r = s.harvest();
  EXPECT_TRUE(r.has_cover());
  EXPECT_EQ(r.outcome, vc::Outcome::kOptimal);
  EXPECT_EQ(r.best_size, 7);
}

TEST(SharedSearch, PvcHarvestWithoutCoverIsNotFound) {
  auto g = graph::complete(5);
  SharedSearch s(vc::Problem::kPvc, 3, vc::greedy_mvc(g).size,
                 vc::greedy_mvc(g).cover, nullptr);
  auto r = s.harvest();
  EXPECT_FALSE(r.has_cover());
  EXPECT_EQ(r.outcome, vc::Outcome::kInfeasible);
  EXPECT_EQ(r.best_size, -1);
  EXPECT_TRUE(r.cover.empty());
}

TEST(SharedSearch, NodeLimitLatchesAbort) {
  auto g = graph::complete(4);
  vc::SolveControl control = node_budget(3);
  SharedSearch s = make_mvc(g, &control);
  EXPECT_TRUE(s.claim_node());
  EXPECT_TRUE(s.claim_node());
  EXPECT_TRUE(s.claim_node());
  EXPECT_FALSE(s.claim_node());  // 4th exceeds
  EXPECT_TRUE(s.aborted());
  EXPECT_FALSE(s.claim_node());  // stays aborted
  EXPECT_EQ(s.nodes(), 3u);      // refused claims are not counted
  EXPECT_EQ(s.stop_cause(), vc::StopCause::kNodeLimit);
  EXPECT_TRUE(s.harvest().limit_hit());
  EXPECT_EQ(s.harvest().outcome, vc::Outcome::kFeasible);  // MVC has cover
}

TEST(SharedSearch, ClaimsNeverExceedTheBudgetAcrossThreads) {
  auto g = graph::complete(4);
  vc::SolveControl control = node_budget(1000);
  SharedSearch s = make_mvc(g, &control);
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      while (s.claim_node()) granted.fetch_add(1, std::memory_order_relaxed);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(granted.load(), 1000u);
  EXPECT_EQ(s.nodes(), 1000u);
}

TEST(SharedSearch, NodeCountAccumulatesAcrossThreads) {
  auto g = graph::complete(4);
  SharedSearch s = make_mvc(g);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) s.add_nodes(1);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(s.nodes(), 4000u);
  EXPECT_FALSE(s.aborted());
}

TEST(NodeBatch, FlushesEveryNAndOnDestruction) {
  auto g = graph::complete(4);
  SharedSearch s = make_mvc(g);
  {
    NodeBatch batch(s, nullptr, /*flush_every=*/8);
    for (int i = 0; i < 20; ++i) EXPECT_TRUE(batch.register_node());
    EXPECT_EQ(s.nodes(), 16u);  // two full flushes; 4 still local
    EXPECT_EQ(batch.visited(), 20u);
  }
  EXPECT_EQ(s.nodes(), 20u);  // destructor flushed the remainder
}

TEST(NodeBatch, HandsItsTotalToTheSinkOnDestruction) {
  auto g = graph::complete(4);
  SharedSearch s = make_mvc(g);
  std::uint64_t block_nodes = 5;  // the sink accumulates
  {
    NodeBatch batch(s, &block_nodes);
    for (int i = 0; i < 40; ++i) batch.register_node();
    EXPECT_EQ(block_nodes, 5u);  // nothing handed over mid-run
  }
  EXPECT_EQ(block_nodes, 45u);
  EXPECT_EQ(s.nodes(), 40u);
}

TEST(NodeBatch, ExactWhenNodeBudgetSet) {
  auto g = graph::complete(4);
  vc::SolveControl control = node_budget(3);
  SharedSearch s = make_mvc(g, &control);
  std::uint64_t block_nodes = 0;
  {
    NodeBatch batch(s, &block_nodes);
    EXPECT_TRUE(batch.register_node());
    EXPECT_TRUE(batch.register_node());
    EXPECT_TRUE(batch.register_node());
    EXPECT_FALSE(batch.register_node());  // 4th exceeds, same node as unbatched
    EXPECT_TRUE(s.aborted());
    EXPECT_EQ(s.nodes(), 3u);  // claimed per node, the refused one excluded
  }
  EXPECT_EQ(block_nodes, 3u);
  EXPECT_EQ(s.nodes(), 3u);
}

TEST(NodeBatch, TimeLimitIsReadOnTheFirstNode) {
  auto g = graph::complete(4);
  vc::Limits limits;
  limits.time_limit_s = 1e-9;  // already expired; no node budget set
  vc::SolveControl control{limits};
  SharedSearch s = make_mvc(g, &control);
  NodeBatch batch(s, nullptr, /*flush_every=*/1u << 20);  // never flushes
  EXPECT_FALSE(batch.register_node());
  EXPECT_EQ(batch.visited(), 0u);
  EXPECT_EQ(s.stop_cause(), vc::StopCause::kTimeLimit);
}

TEST(NodeBatch, ReadsTheClockEveryFewNodes) {
  auto g = graph::complete(4);
  vc::SolveControl control;
  SharedSearch s = make_mvc(g, &control);
  NodeBatch batch(s, nullptr, /*flush_every=*/1u << 20);  // never flushes
  EXPECT_TRUE(batch.register_node());
  control.set_deadline(vc::SolveControl::now_s() - 1.0);
  // The deadline needs a clock read, due within kClockEvery nodes.
  std::uint32_t admitted = 0;
  while (batch.register_node()) ++admitted;
  EXPECT_LT(admitted, NodeBatch::kClockEvery);
  EXPECT_EQ(s.stop_cause(), vc::StopCause::kDeadline);
}

TEST(NodeBatch, CancelStopsTheVeryNextNode) {
  auto g = graph::complete(4);
  vc::SolveControl control;
  SharedSearch s = make_mvc(g, &control);
  {
    NodeBatch batch(s);
    EXPECT_TRUE(batch.register_node());
    EXPECT_TRUE(batch.register_node());
    control.cancel();
    EXPECT_FALSE(batch.register_node());
    EXPECT_EQ(batch.visited(), 2u);
  }
  EXPECT_EQ(s.nodes(), 2u);
  EXPECT_EQ(s.harvest().tree_nodes, 2u);
  EXPECT_EQ(s.harvest().outcome, vc::Outcome::kCancelled);
}

TEST(NodeBatch, SeesAbortLatchedElsewhere) {
  auto g = graph::complete(4);
  vc::SolveControl control = node_budget(1);
  SharedSearch s = make_mvc(g, &control);
  NodeBatch first(s);
  EXPECT_TRUE(first.register_node());
  EXPECT_FALSE(first.register_node());  // latches abort
  NodeBatch other(s);
  EXPECT_FALSE(other.register_node());
  EXPECT_EQ(other.visited(), 0u);
}

TEST(NodeBatch, CountsExactlyAcrossThreads) {
  auto g = graph::complete(4);
  SharedSearch s = make_mvc(g);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      NodeBatch batch(s);  // per-thread, like per-block in the solvers
      for (int i = 0; i < 997; ++i) batch.register_node();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(s.nodes(), 4u * 997u);  // destructor flushes make totals exact
  EXPECT_FALSE(s.aborted());
}

TEST(SharedSearchDeathTest, RejectsInconsistentInitialCover) {
  EXPECT_DEATH(SharedSearch(vc::Problem::kMvc, 0, 3, {0, 1}, nullptr),
               "GVC_CHECK");
}

TEST(SharedSearchDeathTest, PvcRequiresPositiveK) {
  EXPECT_DEATH(SharedSearch(vc::Problem::kPvc, 0, 0, {}, nullptr),
               "GVC_CHECK");
}

TEST(SharedSearch, CancelLatchesThroughPollStop) {
  auto g = graph::complete(4);
  vc::SolveControl control;
  SharedSearch s = make_mvc(g, &control);
  EXPECT_TRUE(s.poll_stop(/*read_clock=*/false));
  control.cancel();
  EXPECT_FALSE(s.poll_stop(/*read_clock=*/false));
  EXPECT_TRUE(s.aborted());
  EXPECT_EQ(s.stop_cause(), vc::StopCause::kCancelled);
  EXPECT_EQ(s.harvest().outcome, vc::Outcome::kCancelled);
}

TEST(SharedSearch, DeadlineLatchesOnlyWithTheClock) {
  auto g = graph::complete(4);
  vc::SolveControl control;
  SharedSearch s = make_mvc(g, &control);
  EXPECT_TRUE(s.poll_stop(/*read_clock=*/true));
  control.set_deadline(vc::SolveControl::now_s() - 1.0);
  EXPECT_TRUE(s.poll_stop(/*read_clock=*/false));
  EXPECT_FALSE(s.poll_stop(/*read_clock=*/true));
  EXPECT_EQ(s.stop_cause(), vc::StopCause::kDeadline);
  EXPECT_EQ(s.harvest().outcome, vc::Outcome::kDeadline);
}

TEST(SharedSearch, PvcWitnessBeatsLaterAbort) {
  // A PVC witness found before (or while) a limit latches still makes the
  // outcome kOptimal: the decision question is answered.
  auto g = graph::complete(10);
  vc::SolveControl control = node_budget(1);
  SharedSearch s(vc::Problem::kPvc, 9, vc::greedy_mvc(g).size,
                 vc::greedy_mvc(g).cover, &control);
  s.set_pvc_found(state_with_cover(g, 7));
  s.claim_node();
  EXPECT_FALSE(s.claim_node());  // budget exceeded, abort latched
  auto r = s.harvest();
  EXPECT_EQ(r.outcome, vc::Outcome::kOptimal);
  EXPECT_EQ(r.best_size, 7);
}

TEST(SharedSearch, FirstStopCauseWins) {
  auto g = graph::complete(4);
  vc::SolveControl control = node_budget(1);
  SharedSearch s = make_mvc(g, &control);
  s.claim_node();
  EXPECT_FALSE(s.claim_node());  // node limit latches first
  control.cancel();              // later cancel cannot overwrite
  EXPECT_FALSE(s.poll_stop(/*read_clock=*/true));
  EXPECT_EQ(s.stop_cause(), vc::StopCause::kNodeLimit);
}

}  // namespace
}  // namespace gvc::vc

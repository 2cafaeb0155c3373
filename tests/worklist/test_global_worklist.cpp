#include "worklist/global_worklist.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "worklist/idle_termination.hpp"

namespace gvc::worklist {
namespace {

vc::DegreeArray root(const graph::CsrGraph& g) { return vc::DegreeArray(g); }

TEST(GlobalWorklist, SeedAndSingleBlockDrain) {
  auto g = graph::cycle(6);
  GlobalWorklist wl(16, 8, /*num_blocks=*/1);
  wl.add(root(g));
  EXPECT_EQ(wl.size_approx(), 1u);

  vc::DegreeArray out;
  EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kGot);
  EXPECT_EQ(out.num_vertices(), 6);
  // Single block, empty queue: the next remove must detect termination.
  EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kDone);
}

TEST(GlobalWorklist, DonationRespectsThreshold) {
  auto g = graph::cycle(4);
  GlobalWorklist wl(16, /*threshold=*/2, /*num_blocks=*/1);
  EXPECT_TRUE(wl.try_donate(root(g)));
  EXPECT_TRUE(wl.try_donate(root(g)));
  // At threshold: rejected even though capacity remains.
  auto keep = root(g);
  EXPECT_FALSE(wl.try_donate(std::move(keep)));
  EXPECT_EQ(keep.num_vertices(), 4);  // rejected donation left intact
  EXPECT_EQ(wl.size_approx(), 2u);

  auto s = wl.stats();
  EXPECT_EQ(s.adds, 2u);
  EXPECT_EQ(s.donations_rejected_threshold, 1u);
}

TEST(GlobalWorklist, DonationRejectedWhenFull) {
  auto g = graph::cycle(4);
  // Capacity 2 (rounds to 2), threshold equal to capacity.
  GlobalWorklist wl(2, 2, 1);
  EXPECT_TRUE(wl.try_donate(root(g)));
  EXPECT_TRUE(wl.try_donate(root(g)));
  EXPECT_FALSE(wl.try_donate(root(g)));
  EXPECT_EQ(wl.stats().donations_rejected_full +
                wl.stats().donations_rejected_threshold,
            1u);
}

TEST(GlobalWorklist, SignalStopUnblocksRemovers) {
  auto g = graph::cycle(4);
  GlobalWorklist wl(8, 4, /*num_blocks=*/2);
  // Only one of the two blocks is present, so the termination condition
  // (all blocks waiting) cannot fire; only the stop signal releases it.
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    vc::DegreeArray out;
    EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kDone);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(released.load());
  wl.signal_stop();
  waiter.join();
  EXPECT_TRUE(released.load());
  EXPECT_TRUE(wl.stopped());
}

TEST(GlobalWorklist, AllBlocksWaitingTerminates) {
  constexpr int kBlocks = 4;
  auto g = graph::cycle(4);
  GlobalWorklist wl(8, 4, kBlocks);
  std::atomic<int> done_count{0};
  std::vector<std::thread> threads;
  for (int b = 0; b < kBlocks; ++b) {
    threads.emplace_back([&] {
      vc::DegreeArray out;
      if (wl.remove(out) == GlobalWorklist::RemoveOutcome::kDone)
        done_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done_count.load(), kBlocks);
}

TEST(GlobalWorklist, WorkIsNotLostUnderContention) {
  // Producer-consumer round: every removed entry spawns donations until a
  // global budget is consumed; at the end, removes == adds and all blocks
  // see kDone.
  constexpr int kBlocks = 4;
  constexpr int kBudget = 500;
  auto g = graph::cycle(8);
  GlobalWorklist wl(64, 32, kBlocks);
  wl.add(root(g));
  std::atomic<int> budget{kBudget};

  std::vector<std::thread> threads;
  for (int b = 0; b < kBlocks; ++b) {
    threads.emplace_back([&] {
      vc::DegreeArray out;
      while (wl.remove(out) == GlobalWorklist::RemoveOutcome::kGot) {
        // Each processed node spawns two children while budget remains.
        for (int c = 0; c < 2; ++c) {
          if (budget.fetch_sub(1) > 0) {
            if (!wl.try_donate(root(g))) budget.fetch_add(1);
          } else {
            budget.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto s = wl.stats();
  EXPECT_EQ(s.adds, s.removes);
  EXPECT_EQ(wl.size_approx(), 0u);
  EXPECT_GT(s.removes, 1u);
}

TEST(GlobalWorklist, MaxSizeSeenTracksPeak) {
  auto g = graph::cycle(4);
  GlobalWorklist wl(16, 8, 1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(wl.try_donate(root(g)));
  vc::DegreeArray out;
  for (int i = 0; i < 5; ++i) wl.remove(out);
  EXPECT_EQ(wl.stats().max_size_seen, 5u);
}

TEST(GlobalWorklist, SeedAddCountsTowardMaxSizeSeen) {
  auto g = graph::cycle(4);
  GlobalWorklist wl(16, 0, 1);  // threshold 0: only the seed ever enters
  wl.add(root(g));
  EXPECT_EQ(wl.stats().adds, 1u);
  EXPECT_EQ(wl.stats().max_size_seen, 1u);
}

// ---- IdleTermination: the all-idle protocol GlobalWorklist::remove and
// WorkStealing's victim scan both run.

TEST(IdleTermination, LastWaiterLatchesDoneOnlyAfterItsRescan) {
  // A one-block grid's block is always the last to wait.
  IdleTermination idle(/*num_blocks=*/1);
  int takes = 0;
  EXPECT_EQ(idle.acquire([&] {
              ++takes;
              EXPECT_FALSE(idle.done());
              return false;
            }),
            Acquired::kDone);
  EXPECT_EQ(takes, 2);  // the scan, then the rescan
  EXPECT_TRUE(idle.done());
}

TEST(IdleTermination, PushBeforeTheLastRescanIsTakenNotLost) {
  // The push lands after the last waiter's scan failed, before its rescan.
  IdleTermination idle(/*num_blocks=*/1);
  int takes = 0;
  EXPECT_EQ(idle.acquire([&] { return ++takes == 2; }), Acquired::kGot);
  EXPECT_EQ(takes, 2);
  EXPECT_FALSE(idle.done());
  EXPECT_EQ(idle.acquire([] { return false; }), Acquired::kDone);
}

TEST(IdleTermination, SignalStopWakesEverySleeper) {
  // Three of four blocks wait; the fourth never arrives, so only the stop
  // releases them.
  IdleTermination idle(/*num_blocks=*/4);
  std::atomic<int> released{0};
  std::vector<std::thread> sleepers;
  for (int b = 0; b < 3; ++b)
    sleepers.emplace_back([&] {
      EXPECT_EQ(idle.acquire([] { return false; }), Acquired::kDone);
      released.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(released.load(), 0);
  idle.signal_stop();
  for (auto& t : sleepers) t.join();
  EXPECT_EQ(released.load(), 3);
  EXPECT_FALSE(idle.done());
}

/// Seconds a sleeper in a two-block grid (the other block never arrives)
/// needs for `takes` takes, the last one succeeding, while the caller floods
/// notify(). A pass its wake predicate does not release sleeps 200 us.
template <typename Ready>
double seconds_for_takes(int takes, Ready ready) {
  IdleTermination idle(/*num_blocks=*/2);
  std::atomic<int> n{0};
  const auto start = std::chrono::steady_clock::now();
  std::thread sleeper([&] {
    idle.acquire([&] { return n.fetch_add(1) + 1 >= takes; }, ready);
  });
  while (n.load() < takes) idle.notify();
  sleeper.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(IdleTermination, WakePredicatesAreRespected) {
  constexpr int kTakes = 200;
  const double sleeping = (kTakes - 1) * 200e-6;
  // WorkStealing's thieves wake early on stop/done only: a notify alone
  // does not end a sleep.
  EXPECT_GE(seconds_for_takes(kTakes, [] { return false; }), sleeping);
  // GlobalWorklist's sleepers wake on a non-empty queue: while it holds
  // work they retry without sleeping.
  EXPECT_LT(seconds_for_takes(kTakes, [] { return true; }), sleeping);
}

TEST(IdleTermination, ChargedAcquireChargesTheWholeWait) {
  util::ActivityAccumulator acc;
  IdleTermination idle(/*num_blocks=*/1);
  EXPECT_TRUE(charged_acquire(
      acc, [&] { return idle.acquire([] { return true; }); }));
  EXPECT_EQ(acc.ns(util::Activity::kTerminate), 0u);
  // A 1 ms scan and a 1 ms rescan, then done: all of it is kTerminate.
  EXPECT_FALSE(charged_acquire(acc, [&] {
    return idle.acquire([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return false;
    });
  }));
  EXPECT_GE(acc.ns(util::Activity::kTerminate), 2'000'000u);
}

TEST(GlobalWorklistDeathTest, ThresholdAboveCapacity) {
  EXPECT_DEATH(GlobalWorklist(4, 100, 1), "threshold");
}

}  // namespace
}  // namespace gvc::worklist

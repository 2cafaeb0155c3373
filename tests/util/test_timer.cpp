#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace gvc::util {
namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);  // generous upper bound for loaded CI machines
  EXPECT_NEAR(t.millis(), t.seconds() * 1e3, 1.0);
}

TEST(WallTimer, ResetRestartsClock) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(NowNs, Monotonic) {
  auto a = now_ns();
  auto b = now_ns();
  EXPECT_LE(a, b);
}

TEST(ActivityAccumulator, StartsZeroed) {
  ActivityAccumulator acc;
  for (int i = 0; i < kNumActivities; ++i)
    EXPECT_EQ(acc.ns(static_cast<Activity>(i)), 0u);
  EXPECT_EQ(acc.total_ns(), 0u);
}

TEST(ActivityAccumulator, AddAndTotal) {
  ActivityAccumulator acc;
  acc.add(Activity::kWorklistAdd, 100);
  acc.add(Activity::kWorklistAdd, 50);
  acc.add(Activity::kDegreeOneRule, 25);
  EXPECT_EQ(acc.ns(Activity::kWorklistAdd), 150u);
  EXPECT_EQ(acc.ns(Activity::kDegreeOneRule), 25u);
  EXPECT_EQ(acc.total_ns(), 175u);
}

TEST(ActivityAccumulator, Merge) {
  ActivityAccumulator a, b;
  a.add(Activity::kStackPush, 10);
  b.add(Activity::kStackPush, 5);
  b.add(Activity::kTerminate, 7);
  a.merge(b);
  EXPECT_EQ(a.ns(Activity::kStackPush), 15u);
  EXPECT_EQ(a.ns(Activity::kTerminate), 7u);
}

TEST(ActivityScope, ChargesElapsedTimeForWork) {
  ActivityAccumulator acc;
  volatile double sink = 0;
  {
    ActivityScope scope(acc, Activity::kFindMaxDegree);
    for (int i = 0; i < 5'000'000; ++i) sink = sink + 1.0;
  }
  EXPECT_GE(acc.ns(Activity::kFindMaxDegree), 500'000u);
}

TEST(ActivityScope, ChargesElapsedMonotonicTimeWhileSleeping) {
  // Activities are charged on the monotonic clock, like cycles on an SM:
  // a waiting "block" is charged the whole wait, and never more than the
  // wall time around the scope. (A sleeping block still accrues ~no
  // makespan; VirtualDevice tests that on the thread CPU clock.)
  ActivityAccumulator acc;
  WallTimer outer;
  {
    ActivityScope scope(acc, Activity::kTerminate);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double outer_s = outer.seconds();
  EXPECT_GE(acc.ns(Activity::kTerminate), 10'000'000u);
  EXPECT_LE(static_cast<double>(acc.ns(Activity::kTerminate)) * 1e-9, outer_s);
  EXPECT_EQ(acc.total_ns(), acc.ns(Activity::kTerminate));
}

/// Starts `n` nodes 100 ns apart from `t0` on a synthetic clock, charging
/// `ns` to `a` on each node the gate samples. Returns the time after the last
/// node's window.
std::uint64_t visit_nodes(ActivityAccumulator& acc, int n, std::uint64_t t0,
                          Activity a, std::uint64_t ns) {
  for (int i = 0; i < n; ++i) {
    acc.begin_node(t0 + 100 * static_cast<std::uint64_t>(i));
    if (acc.gate_open()) acc.charge(a, ns);
  }
  return t0 + 100 * static_cast<std::uint64_t>(n);
}

TEST(ActivityScope, ClosedGateChargesNothing) {
  ActivityAccumulator acc;
  acc.begin_node();  // the first node is sampled
  EXPECT_TRUE(acc.gate_open());
  acc.begin_node();
  ASSERT_FALSE(acc.gate_open());
  volatile double sink = 0;
  {
    ActivityScope scope(acc, Activity::kFindMaxDegree);
    for (int i = 0; i < 1'000'000; ++i) sink = sink + 1.0;
  }
  const int r = timed(&acc, Activity::kDegreeOneRule, [] { return 7; });
  EXPECT_EQ(r, 7);
  EXPECT_EQ(acc.total_ns(), 0u);
}

TEST(ActivityAccumulator, GateOpensOnEveryStrideNodeFromTheFirst) {
  ActivityAccumulator acc;
  int open = 0;
  for (std::uint64_t i = 0; i < 3 * ActivityAccumulator::kSampleStride + 1;
       ++i) {
    acc.begin_node();
    if (acc.gate_open()) {
      EXPECT_EQ(i % ActivityAccumulator::kSampleStride, 0u) << i;
      ++open;
    }
  }
  EXPECT_EQ(open, 4);  // nodes 0, 16, 32 and 48
}

TEST(ActivityAccumulator, SettleScalesSamplesToTheBlocksNodeTime) {
  ActivityAccumulator acc;
  acc.charge(Activity::kRemoveMaxVertex, 30);  // before the first node: exact
  for (int i = 0; i < 32; ++i) {  // nodes at t = 100, 200, ..., 3200
    acc.begin_node(100 + 100 * static_cast<std::uint64_t>(i));
    if (i == 0) acc.charge(Activity::kDegreeOneRule, 40);
    if (i == 16) acc.charge(Activity::kFindMaxDegree, 60);
    if (i == 5) acc.add(Activity::kWorklistRemove, 50);  // unsampled window
  }
  EXPECT_EQ(acc.ns(Activity::kDegreeOneRule), 40u);  // unscaled
  const ActivityTotals t = acc.settle(0, 3300);
  // Node time 3300 - 100 - 50 = 3150 over two 100 ns sampled windows.
  EXPECT_EQ(t.ns(Activity::kDegreeOneRule), 630u);  // 40 x 15.75
  EXPECT_EQ(t.ns(Activity::kFindMaxDegree), 945u);  // 60 x 15.75
  EXPECT_EQ(t.ns(Activity::kRemoveMaxVertex), 30u);
  EXPECT_EQ(t.ns(Activity::kWorklistRemove), 50u);
  EXPECT_EQ(t.total_ns(), 1655u);
}

TEST(ActivityAccumulator, WaitsInsideSampledWindowsAreNotNodeTime) {
  ActivityAccumulator acc;
  acc.begin_node(100);
  acc.charge(Activity::kHighDegreeRule, 40);
  acc.add(Activity::kWorklistRemove, 50);  // inside the sampled window
  acc.begin_node(200);
  acc.begin_node(300);
  const ActivityTotals t = acc.settle(0, 400);
  // Node time 300 - 50 = 250 over the sampled window's 100 - 50 = 50.
  EXPECT_EQ(t.ns(Activity::kHighDegreeRule), 200u);
  EXPECT_EQ(t.total_ns(), 250u);
}

TEST(ActivityAccumulator, SettleClampsAtTheBlocksElapsedTime) {
  // Charges larger than the windows they fall in (no scope can produce
  // them) still leave the block inside its elapsed time.
  ActivityAccumulator acc;
  const std::uint64_t end = visit_nodes(acc, 32, 100, Activity::kDegreeOneRule,
                                        150);
  acc.add(Activity::kWorklistRemove, 1000);
  const ActivityTotals t = acc.settle(0, end);
  EXPECT_EQ(t.ns(Activity::kWorklistRemove), 1000u);
  EXPECT_LE(t.total_ns(), end);
  EXPECT_GE(t.total_ns(), end - 2);  // the clamp binds, up to rounding
}

TEST(ActivityAccumulator, MergeAddsSettledAccumulators) {
  ActivityAccumulator a, b, sum;
  // a: two samples of 10 over 200 of 3200 ns; b: one over 100 of 300 ns.
  const std::uint64_t a_end =
      visit_nodes(a, 32, 0, Activity::kHighDegreeRule, 10);
  const std::uint64_t b_end =
      visit_nodes(b, 3, 0, Activity::kHighDegreeRule, 10);
  b.add(Activity::kTerminate, 5);
  sum.merge(a.settle(0, a_end));
  sum.merge(b.settle(0, b_end + 5));
  EXPECT_EQ(sum.ns(Activity::kHighDegreeRule), 320u + 30u);
  EXPECT_EQ(sum.ns(Activity::kTerminate), 5u);
  EXPECT_EQ(sum.total_ns(), 355u);
}

TEST(ActivityAccumulator, AddChargesWhileTheGateIsClosed) {
  ActivityAccumulator acc;
  acc.begin_node(100);
  acc.begin_node(200);
  ASSERT_FALSE(acc.gate_open());
  acc.add(Activity::kWorklistRemove, 70);
  const ActivityTotals t = acc.settle(0, 1000);
  EXPECT_EQ(t.ns(Activity::kWorklistRemove), 70u);  // exact, not scaled
  EXPECT_EQ(t.total_ns(), 70u);
}

TEST(ThreadCpuNs, MonotoneAndAdvancesUnderWork) {
  auto a = thread_cpu_ns();
  volatile double sink = 0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
  auto b = thread_cpu_ns();
  EXPECT_GT(b, a);
}

TEST(ActivityNames, AllDistinctAndNonEmpty) {
  std::set<std::string> names;
  for (int i = 0; i < kNumActivities; ++i) {
    std::string n = activity_name(static_cast<Activity>(i));
    EXPECT_FALSE(n.empty());
    EXPECT_NE(n, "?");
    names.insert(n);
  }
  EXPECT_EQ(static_cast<int>(names.size()), kNumActivities);
}

}  // namespace
}  // namespace gvc::util

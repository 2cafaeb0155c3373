// DeviceBroker unit tests: demand gating, exactly-once settlement of every
// exported node (runs + reclaims + abandons == exports), drain semantics,
// and the conservation ledger under concurrency. The broker is the tier-2
// cross-device steal path; these tests drive it directly with synthetic
// groups instead of whole solves.

#include "worklist/device_broker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "vc/degree_array.hpp"
#include "vc/reductions.hpp"

namespace gvc::worklist {
namespace {

const graph::CsrGraph& g() {
  static const graph::CsrGraph* graph =
      new graph::CsrGraph(graph::gnp(24, 0.3, /*seed=*/7));
  return *graph;
}

vc::DegreeArray node() { return vc::DegreeArray(g()); }

/// A runner that just counts its invocations (the real runner re-enters
/// the node through vc::search_subtree; settlement is what's under test
/// here).
DeviceBroker::Group::Runner counting_runner(std::atomic<int>& runs) {
  return [&runs](vc::DegreeArray&&, vc::ReduceWorkspace&) {
    runs.fetch_add(1);
  };
}

TEST(DeviceBroker, NoRemoteDemandNoExport) {
  DeviceBroker broker(2, /*capacity=*/4);
  std::atomic<int> runs{0};
  DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));

  EXPECT_FALSE(group.want_export());
  EXPECT_FALSE(group.try_export(node()));
  EXPECT_EQ(broker.stats().exports, 0u);
  EXPECT_EQ(broker.stats().rejected_no_demand, 1u);

  // Demand on the exporter's OWN device is not remote demand.
  broker.enter_hungry(0);
  EXPECT_FALSE(group.want_export());
  broker.leave_hungry(0);

  vc::ReduceWorkspace ws;
  group.drain(ws, /*abandon=*/false);
  EXPECT_EQ(runs.load(), 0);
}

TEST(DeviceBroker, ExportImportRunExactlyOnce) {
  DeviceBroker broker(2, /*capacity=*/4);
  std::atomic<int> runs{0};
  DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));

  broker.enter_hungry(1);
  EXPECT_TRUE(group.want_export());
  EXPECT_TRUE(group.try_export(node()));
  EXPECT_EQ(group.exported(), 1u);
  EXPECT_EQ(broker.size(), 1u);

  // Imports are cross-device only: the exporter's device sees nothing.
  DeviceBroker::Import im;
  EXPECT_FALSE(broker.try_import(0, im));
  ASSERT_TRUE(broker.try_import(1, im));
  EXPECT_EQ(im.source_device(), 0);
  broker.leave_hungry(1);

  vc::ReduceWorkspace ws;
  im.run(ws);
  EXPECT_EQ(runs.load(), 1);

  group.drain(ws, /*abandon=*/false);  // nothing queued, nothing inflight
  const DeviceBroker::Stats s = broker.stats();
  EXPECT_EQ(s.exports, 1u);
  EXPECT_EQ(s.imports, 1u);
  EXPECT_EQ(s.runs, 1u);
  EXPECT_EQ(s.reclaims, 0u);
  EXPECT_EQ(s.abandons, 0u);
}

TEST(DeviceBroker, DroppedImportCompletesAsAbandon) {
  DeviceBroker broker(2, /*capacity=*/4);
  std::atomic<int> runs{0};
  DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));

  broker.enter_hungry(1);
  ASSERT_TRUE(group.try_export(node()));
  {
    DeviceBroker::Import im;
    ASSERT_TRUE(broker.try_import(1, im));
    // Dropped without run(): the importing worker bailed out. drain()
    // must not deadlock waiting for it.
  }
  broker.leave_hungry(1);

  vc::ReduceWorkspace ws;
  group.drain(ws, /*abandon=*/false);
  EXPECT_EQ(runs.load(), 0);
  const DeviceBroker::Stats s = broker.stats();
  EXPECT_EQ(s.exports, 1u);
  EXPECT_EQ(s.imports, 1u);
  EXPECT_EQ(s.abandons, 1u);
  EXPECT_EQ(s.runs + s.reclaims + s.abandons, s.exports);
}

TEST(DeviceBroker, DrainReclaimsUnimportedNodes) {
  DeviceBroker broker(2, /*capacity=*/4);
  std::atomic<int> runs{0};
  DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));

  broker.enter_hungry(1);
  broker.enter_hungry(1);
  broker.enter_hungry(1);
  ASSERT_TRUE(group.try_export(node()));
  ASSERT_TRUE(group.try_export(node()));
  broker.leave_hungry(1);
  broker.leave_hungry(1);
  broker.leave_hungry(1);

  // Nobody imported: the owner takes both back and runs them inline —
  // an unexplored subtree cannot be dropped from a clean solve.
  vc::ReduceWorkspace ws;
  group.drain(ws, /*abandon=*/false);
  EXPECT_EQ(runs.load(), 2);
  const DeviceBroker::Stats s = broker.stats();
  EXPECT_EQ(s.reclaims, 2u);
  EXPECT_EQ(s.runs + s.reclaims + s.abandons, s.exports);
  EXPECT_EQ(broker.size(), 0u);
}

TEST(DeviceBroker, DrainAbandonsWhenSolveStopped) {
  DeviceBroker broker(2, /*capacity=*/4);
  std::atomic<int> runs{0};
  DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));

  broker.enter_hungry(1);
  broker.enter_hungry(1);
  ASSERT_TRUE(group.try_export(node()));
  broker.leave_hungry(1);
  broker.leave_hungry(1);

  vc::ReduceWorkspace ws;
  group.drain(ws, /*abandon=*/true);  // solve aborted / PVC already found
  EXPECT_EQ(runs.load(), 0);
  const DeviceBroker::Stats s = broker.stats();
  EXPECT_EQ(s.abandons, 1u);
  EXPECT_EQ(s.runs + s.reclaims + s.abandons, s.exports);
}

TEST(DeviceBroker, GroupDestructorSweepsLikeAbandonDrain) {
  DeviceBroker broker(2, /*capacity=*/4);
  std::atomic<int> runs{0};
  {
    DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));
    broker.enter_hungry(1);
    ASSERT_TRUE(group.try_export(node()));
    broker.leave_hungry(1);
    // No drain(): the destructor is the safety net.
  }
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(broker.size(), 0u);
  EXPECT_EQ(broker.stats().abandons, 1u);
}

TEST(DeviceBroker, CapacityBoundsTheQueue) {
  DeviceBroker broker(2, /*capacity=*/2);
  std::atomic<int> runs{0};
  DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));

  // More hungry workers than capacity: the queue bound wins.
  for (int i = 0; i < 8; ++i) broker.enter_hungry(1);
  EXPECT_TRUE(group.try_export(node()));
  EXPECT_TRUE(group.try_export(node()));
  EXPECT_FALSE(group.try_export(node()));
  EXPECT_EQ(broker.stats().rejected_full, 1u);
  for (int i = 0; i < 8; ++i) broker.leave_hungry(1);

  vc::ReduceWorkspace ws;
  group.drain(ws, /*abandon=*/true);
}

TEST(DeviceBroker, DemandGateClosesOnceQueueCoversHungryWorkers) {
  DeviceBroker broker(2, /*capacity=*/8);
  std::atomic<int> runs{0};
  DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));

  broker.enter_hungry(1);  // one hungry worker elsewhere
  EXPECT_TRUE(group.try_export(node()));
  // One node already queued for one hungry worker: no more demand.
  EXPECT_FALSE(group.want_export());
  EXPECT_FALSE(group.try_export(node()));
  EXPECT_EQ(broker.stats().rejected_no_demand, 1u);
  broker.leave_hungry(1);

  vc::ReduceWorkspace ws;
  group.drain(ws, /*abandon=*/true);
}

// Concurrency torture: one owner exporting under sustained remote demand
// while several thief threads import and run; conservation must be exact
// at quiescence and every run must land before drain() returns.
TEST(DeviceBroker, ConcurrentImportersConserveEveryNode) {
  DeviceBroker broker(3, /*capacity=*/16);
  std::atomic<int> runs{0};
  std::atomic<bool> stop{false};
  constexpr int kThieves = 3;

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      const int dev = 1 + (t % 2);  // devices 1 and 2 steal from device 0
      vc::ReduceWorkspace ws;
      while (!stop.load()) {
        broker.enter_hungry(dev);
        DeviceBroker::Import im;
        if (broker.try_import(dev, im)) im.run(ws);
        broker.leave_hungry(dev);
      }
    });
  }

  std::uint64_t attempted = 0, exported = 0;
  {
    DeviceBroker::Group group(broker, /*device=*/0, counting_runner(runs));
    for (int i = 0; i < 400; ++i) {
      ++attempted;
      if (group.want_export() && group.try_export(node())) ++exported;
      if ((i & 31) == 0) std::this_thread::yield();
    }
    vc::ReduceWorkspace ws;
    group.drain(ws, /*abandon=*/false);
    EXPECT_EQ(group.exported(), exported);
  }
  stop.store(true);
  for (auto& t : thieves) t.join();

  const DeviceBroker::Stats s = broker.stats();
  EXPECT_EQ(s.exports, exported);
  EXPECT_EQ(s.runs + s.reclaims + s.abandons, s.exports);
  // The runner fired once per remote run AND once per inline reclaim;
  // abandons only happen for dropped imports, which these thieves never do.
  EXPECT_EQ(s.runs + s.reclaims, static_cast<std::uint64_t>(runs.load()));
  EXPECT_EQ(s.abandons, 0u);
  EXPECT_LE(s.imports, s.exports);
  EXPECT_EQ(broker.size(), 0u);
}

}  // namespace
}  // namespace gvc::worklist

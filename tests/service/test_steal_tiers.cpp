// Steal-tier conservation torture (PR 10). A multi-device service under a
// deliberately shard-skewed flood — every job keyed to ONE shard of device
// 0 — with cancels and deadlines mixed in, while a reader thread polls
// stats() mid-run (the counters must be race-free monotone reads; the TSan
// job is where that claim is actually checked). At quiescence:
//
//  * every submission sits in exactly one terminal class (terminal
//    identity, extended to the steal counters),
//  * every queued job was popped exactly once — by its own worker or a
//    tier-1 thief, never both, never neither,
//  * every migrated subtree node was executed-or-abandoned exactly once
//    (the broker ledger: exports == runs + reclaims + abandons).

#include "service/solve_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/graph_hash.hpp"

namespace gvc::service {
namespace {

std::shared_ptr<const graph::CsrGraph> share(graph::CsrGraph g) {
  return std::make_shared<graph::CsrGraph>(std::move(g));
}

/// The CacheKey submit() routes on — computed from the SUBMITTED spec,
/// before the device pin (shard choice precedes the pin).
CacheKey route_key(const JobSpec& spec) {
  CacheKey key;
  key.graph_hash = canonical_graph_hash(*spec.graph);
  key.num_vertices = spec.graph->num_vertices();
  key.num_edges = spec.graph->num_edges();
  key.config_hash = solve_config_hash(spec.method, spec.config);
  return key;
}

/// Distinct instances that all route to `shard` under `num_shards` queues:
/// generate seeds until the key lands where the skew wants it.
std::vector<std::shared_ptr<const graph::CsrGraph>> skewed_instances(
    int count, int shard, int num_shards, int n, double p) {
  std::vector<std::shared_ptr<const graph::CsrGraph>> out;
  int seed = 1;
  while (static_cast<int>(out.size()) < count) {
    auto g = share(graph::gnp(n, p, /*seed=*/seed++));
    JobSpec probe;
    probe.graph = g;
    if (SolveService::home_shard(route_key(probe), num_shards) == shard)
      out.push_back(std::move(g));
  }
  return out;
}

std::uint64_t queues_pushed(const ServiceStats& s) {
  std::uint64_t t = 0;
  for (const auto& q : s.queues) t += q.pushed;
  return t;
}

std::uint64_t queues_popped(const ServiceStats& s) {
  std::uint64_t t = 0;
  for (const auto& q : s.queues) t += q.popped;
  return t;
}

void expect_conservation(const ServiceStats& s) {
  // Terminal identity, steal tiers included: stealing moves WHERE a job
  // runs, never whether it terminates.
  EXPECT_EQ(s.submitted, s.completed + s.cache_hits + s.coalesced +
                             s.rejected + s.expired + s.cancelled);
  // Pop conservation: a stolen job is popped by its thief INSTEAD of its
  // home worker — totals across shards still match exactly.
  EXPECT_EQ(queues_popped(s), queues_pushed(s));
  EXPECT_LE(s.steal_jobs, queues_popped(s));
  // Migrated-node ledger: every exported node settles in exactly one
  // bucket, and every worker-executed import is a broker-counted run.
  EXPECT_EQ(s.broker.runs + s.broker.reclaims + s.broker.abandons,
            s.broker.exports);
  EXPECT_EQ(s.steal_nodes, s.broker.runs);
  EXPECT_LE(s.broker.imports, s.broker.exports);
}

TEST(StealTiers, SkewedFloodConservesJobsAndNodes) {
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.num_devices = 2;
  opts.steal_tiers = StealTiers::kJobsAndNodes;
  opts.queue_capacity = 128;
  auto svc = std::make_unique<SolveService>(opts);
  ASSERT_EQ(svc->num_devices(), 2);
  ASSERT_NE(svc->broker(), nullptr);
  // Contiguous worker->device mapping: shard 0 belongs to device 0, so
  // device 1's workers can only be fed by the broker (tier 2).
  ASSERT_EQ(svc->device_of_worker(0), 0);
  ASSERT_EQ(svc->device_of_worker(3), 1);

  // Everything lands on shard 0: worker 1 must tier-1 steal to help, and
  // device 1 starves unless running solves migrate subtrees to it.
  const auto graphs = skewed_instances(
      /*count=*/36, /*shard=*/0, opts.num_workers, /*n=*/80, /*p=*/0.22);

  std::vector<JobTicket> tickets;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    JobSpec spec;
    spec.graph = graphs[i];
    spec.limits.max_tree_nodes = 50000;  // bound the occasional hard draw
    if (i % 5 == 4) spec.deadline_s = 0.02;  // some expire in the backlog
    tickets.push_back(svc->submit(std::move(spec)));
  }
  for (std::size_t i = 0; i < tickets.size(); i += 3) tickets[i].cancel();

  // Mid-run stats reads, racing the workers: every counter is a relaxed
  // monotone read; the TSan job is where the no-tearing claim is checked.
  // Submissions are done, so terminal classes can only grow toward
  // `submitted` — the inequality holds at every intermediate point.
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load()) {
      const ServiceStats s = svc->stats();
      EXPECT_LE(s.completed + s.expired + s.cancelled + s.rejected +
                    s.cache_hits,
                s.submitted);
      EXPECT_LE(s.broker.runs + s.broker.reclaims + s.broker.abandons,
                s.broker.exports);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (const auto& t : tickets) svc->wait(t);
  svc->shutdown();
  stop_reader.store(true);
  reader.join();

  const ServiceStats s = svc->stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(tickets.size()));
  expect_conservation(s);
  // With the whole flood on one shard and three other workers idle,
  // tier-1 stealing must have fired (worker 1 shares device 0's queues).
  EXPECT_GT(s.steal_jobs, 0u);
}

TEST(StealTiers, JobsOnlyTierRunsWithoutBroker) {
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.num_devices = 2;
  opts.steal_tiers = StealTiers::kJobs;
  auto svc = std::make_unique<SolveService>(opts);
  EXPECT_EQ(svc->broker(), nullptr);  // tier 2 never constructed

  const auto graphs = skewed_instances(
      /*count=*/8, /*shard=*/0, opts.num_workers, /*n=*/70, /*p=*/0.2);
  std::vector<JobTicket> tickets;
  for (const auto& g : graphs) {
    JobSpec spec;
    spec.graph = g;
    tickets.push_back(svc->submit(std::move(spec)));
  }
  for (const auto& t : tickets) {
    const parallel::ParallelResult& r = svc->wait(t);
    EXPECT_EQ(r.outcome, vc::Outcome::kOptimal);
  }
  svc->shutdown();

  const ServiceStats s = svc->stats();
  expect_conservation(s);
  EXPECT_EQ(s.steal_nodes, 0u);
  EXPECT_EQ(s.broker.exports, 0u);
}

// Stolen jobs serve correct answers: a stolen job executes the config it
// was pinned at admission, so its result must agree with an unstolen run
// of the same instance on a fresh single-device service.
TEST(StealTiers, StolenJobsMatchUnstolenResults) {
  const auto graphs = skewed_instances(
      /*count=*/6, /*shard=*/0, /*num_shards=*/4, /*n=*/60, /*p=*/0.25);

  std::vector<int> stolen_sizes;
  {
    ServiceOptions opts;
    opts.num_workers = 4;
    opts.num_devices = 2;
    opts.steal_tiers = StealTiers::kJobsAndNodes;
    auto svc = std::make_unique<SolveService>(opts);
    std::vector<JobTicket> tickets;
    for (const auto& g : graphs) {
      JobSpec spec;
      spec.graph = g;
      tickets.push_back(svc->submit(std::move(spec)));
    }
    for (const auto& t : tickets) {
      const parallel::ParallelResult& r = svc->wait(t);
      EXPECT_EQ(r.outcome, vc::Outcome::kOptimal);
      stolen_sizes.push_back(r.best_size);
    }
    svc->shutdown();
  }
  {
    ServiceOptions opts;
    opts.num_workers = 1;
    auto svc = std::make_unique<SolveService>(opts);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      JobSpec spec;
      spec.graph = graphs[i];
      const JobTicket t = svc->submit(std::move(spec));
      const parallel::ParallelResult& r = svc->wait(t);
      EXPECT_EQ(r.outcome, vc::Outcome::kOptimal);
      EXPECT_EQ(r.best_size, stolen_sizes[i]) << "instance " << i;
    }
    svc->shutdown();
  }
}

}  // namespace
}  // namespace gvc::service

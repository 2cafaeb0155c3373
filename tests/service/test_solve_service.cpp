#include "service/solve_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "harness/catalog.hpp"

namespace gvc::service {
namespace {

using parallel::Method;
using parallel::ParallelConfig;
using parallel::ParallelResult;

std::shared_ptr<const graph::CsrGraph> share(graph::CsrGraph g) {
  return std::make_shared<graph::CsrGraph>(std::move(g));
}

/// Deterministic config: a single block makes the parallel traversals
/// sequentialized, so repeated runs (and the service's run) visit the same
/// tree — the precondition for bit-identity.
ParallelConfig deterministic_config() {
  ParallelConfig c;
  c.grid_override = 1;
  c.start_depth = 2;
  c.worklist_capacity = 128;
  return c;
}

void expect_bit_identical(const ParallelResult& a, const ParallelResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.best_size, b.best_size);
  EXPECT_EQ(a.cover, b.cover);
  EXPECT_EQ(a.tree_nodes, b.tree_nodes);
  EXPECT_EQ(a.greedy_upper_bound, b.greedy_upper_bound);
}

// The ISSUE-2 differential guarantee: for every method, a service
// submission returns the record a direct parallel::solve() call produces —
// same cover, same tree — on catalog smoke instances.
TEST(SolveServiceDifferential, BitIdenticalToDirectCallsOnCatalogSmoke) {
  auto catalog = harness::paper_catalog(harness::Scale::kSmoke);

  ServiceOptions opts;
  opts.num_workers = 3;
  opts.partition_device = false;  // run the submitted config verbatim
  SolveService svc(opts);

  for (const char* name : {"US_power_grid", "p_hat_300_3", "LastFM_Asia"}) {
    const harness::Instance& inst = harness::find_instance(catalog, name);
    for (Method method :
         {Method::kSequential, Method::kHybrid, Method::kWorkStealing}) {
      ParallelConfig config = deterministic_config();
      ParallelResult direct = parallel::solve(inst.graph(), method, config);

      JobSpec spec;
      spec.graph = share(inst.graph());
      spec.method = method;
      spec.config = config;
      JobTicket ticket = svc.submit(std::move(spec));
      const ParallelResult& served = svc.wait(ticket);

      ASSERT_EQ(ticket.state->wait(), JobStatus::kDone)
          << name << " " << method_name(method);
      expect_bit_identical(direct, served);
      EXPECT_TRUE(graph::is_vertex_cover(inst.graph(), served.cover));
    }
  }
}

TEST(SolveService, CacheHitServesIdenticalRecordWithoutResolving) {
  ServiceOptions opts;
  opts.num_workers = 2;
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(graph::gnp(40, 0.25, 5));
  spec.method = Method::kSequential;

  JobTicket first = svc.submit(spec);
  const ParallelResult& r1 = svc.wait(first);
  EXPECT_FALSE(first.cache_hit);

  JobTicket second = svc.submit(spec);
  const ParallelResult& r2 = svc.wait(second);
  EXPECT_TRUE(second.cache_hit);
  expect_bit_identical(r1, r2);

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 1u);  // one solve served both tickets
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(SolveService, IdenticalInflightSubmissionsCoalesce) {
  ServiceOptions opts;
  opts.num_workers = 2;
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(graph::complement(graph::p_hat(40, 0.35, 0.85, 3)));
  spec.method = Method::kSequential;

  std::vector<JobSpec> batch(8, spec);
  std::vector<JobTicket> tickets = svc.submit_all(std::move(batch));

  const ParallelResult& first = svc.wait(tickets.front());
  for (const auto& t : tickets) expect_bit_identical(first, svc.wait(t));

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 8u);
  // One ticket owns the solve; the other 7 either coalesced onto it while
  // in flight or hit the completed entry afterwards.
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.coalesced + stats.cache_hits, 7u);
}

TEST(SolveService, ExecutionPolicyKnobsShareOneCacheEntry) {
  // branch_state is execution policy (every setting produces bit-identical
  // records), so it stays out of the cache key: a resubmission differing
  // only in that knob must be a pure cache hit, not a second solve.
  ServiceOptions opts;
  opts.num_workers = 2;
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(graph::gnp(40, 0.25, 7));
  spec.method = Method::kSequential;
  spec.config.branch_state = vc::BranchStateMode::kUndoTrail;

  JobTicket first = svc.submit(spec);
  const ParallelResult& r1 = svc.wait(first);
  EXPECT_FALSE(first.cache_hit);

  spec.config.branch_state = vc::BranchStateMode::kCopy;
  JobTicket second = svc.submit(spec);
  const ParallelResult& r2 = svc.wait(second);
  EXPECT_TRUE(second.cache_hit);
  expect_bit_identical(r1, r2);
  EXPECT_EQ(svc.stats().completed, 1u);
}

TEST(SolveService, DistinctConfigsDoNotCoalesce) {
  ServiceOptions opts;
  opts.num_workers = 2;
  SolveService svc(opts);

  JobSpec a;
  a.graph = share(graph::gnp(36, 0.3, 11));
  a.method = Method::kSequential;
  JobSpec b = a;
  b.config.branch = vc::BranchStrategy::kMinDegree;

  JobTicket ta = svc.submit(std::move(a));
  JobTicket tb = svc.submit(std::move(b));
  svc.wait(ta);
  svc.wait(tb);

  EXPECT_EQ(svc.stats().completed, 2u);
  EXPECT_EQ(svc.stats().coalesced, 0u);
  // Both must still reach the same optimum (branching is exact).
  EXPECT_EQ(ta.state->result().best_size, tb.state->result().best_size);
}

TEST(SolveService, ExpiredDeadlineJobsAreDroppedNotSolved) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);

  // Occupy the single worker so the deadlined job waits in the queue.
  JobSpec blocker;
  blocker.graph = share(graph::complement(graph::p_hat(60, 0.4, 0.9, 17)));
  blocker.method = Method::kSequential;
  JobTicket tb = svc.submit(blocker);

  JobSpec doomed;
  doomed.graph = share(graph::gnp(30, 0.3, 1));
  doomed.method = Method::kSequential;
  doomed.deadline_s = 1e-9;  // expires effectively immediately
  JobTicket td = svc.submit(std::move(doomed));

  EXPECT_EQ(td.state->wait(), JobStatus::kExpired);
  const ParallelResult& dropped = svc.wait(td);
  EXPECT_FALSE(dropped.has_cover());
  EXPECT_EQ(dropped.outcome, vc::Outcome::kDeadline);

  svc.wait(tb);
  EXPECT_GE(svc.stats().expired, 1u);

  // The expired job must not have poisoned the cache: resubmitting without
  // a deadline solves it for real.
  JobSpec retry;
  retry.graph = share(graph::gnp(30, 0.3, 1));
  retry.method = Method::kSequential;
  JobTicket tr = svc.submit(std::move(retry));
  EXPECT_EQ(tr.state->wait(), JobStatus::kDone);
  EXPECT_TRUE(svc.wait(tr).has_cover());
}

TEST(SolveService, LimitHitResultsAreNotCached) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(graph::complement(graph::p_hat(48, 0.35, 0.85, 41)));
  spec.method = Method::kSequential;
  spec.limits.max_tree_nodes = 3;  // guaranteed limit hit

  JobTicket first = svc.submit(spec);
  EXPECT_TRUE(svc.wait(first).limit_hit());
  EXPECT_EQ(first.state->result().outcome, vc::Outcome::kFeasible);

  // The failure must not be served to the identical resubmission: it
  // solves again (and times out again — but by running, not via cache).
  JobTicket second = svc.submit(spec);
  svc.wait(second);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(svc.stats().completed, 2u);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
}

TEST(SolveService, PartitionedCacheKeysStillHitOnResubmission) {
  // With device partitioning on (the default), the cache key encodes the
  // executed slice; identical submissions route to the same shard and the
  // same slice, so the second submission is still a pure hit.
  ServiceOptions opts;
  opts.num_workers = 3;
  ASSERT_TRUE(opts.partition_device);
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(graph::gnp(38, 0.25, 77));
  spec.method = Method::kHybrid;
  JobTicket first = svc.submit(spec);
  svc.wait(first);
  JobTicket second = svc.submit(spec);
  svc.wait(second);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(svc.stats().completed, 1u);
  // And the executed device really was a slice, recorded in the job spec.
  EXPECT_LT(first.state->spec().config.device.num_sms,
            device::DeviceSpec::host_scaled().num_sms);
}

TEST(SolveService, BlockPolicyBoundsQueueAndCompletesEverything) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 4;  // force backpressure on a 32-job burst
  opts.full_policy = JobQueue::FullPolicy::kBlock;
  SolveService svc(opts);

  std::vector<JobSpec> burst;
  for (int i = 0; i < 32; ++i) {
    JobSpec spec;
    spec.graph = share(graph::gnp(34, 0.25, static_cast<std::uint64_t>(i)));
    spec.method = Method::kSequential;
    burst.push_back(std::move(spec));
  }
  std::vector<JobTicket> tickets = svc.submit_all(std::move(burst));

  for (const auto& t : tickets)
    EXPECT_EQ(t.state->wait(), JobStatus::kDone);

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 32u);
  for (const auto& q : stats.queues)
    EXPECT_LE(q.max_size_seen, opts.queue_capacity);
}

TEST(SolveService, RejectPolicyRefusesOverflowInsteadOfBlocking) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 2;
  opts.full_policy = JobQueue::FullPolicy::kReject;
  SolveService svc(opts);

  // Pin the worker on a job that cannot finish while the test runs (an
  // exact MVC of G(200, 0.2)), then flood the 2-slot shard with distinct
  // jobs. The busy worker drains nothing, so exactly 2 are queued and the
  // other 6 rejected — and under kReject, submit() never blocks. Cancelling
  // the blocker afterwards lets the queued two run.
  JobSpec blocker;
  blocker.graph = share(graph::gnp(200, 0.2, 1));
  blocker.method = Method::kSequential;
  JobTicket tb = svc.submit(blocker);
  while (tb.state->status() == JobStatus::kQueued)
    std::this_thread::yield();  // worker picked it up

  std::vector<JobTicket> flood;
  for (int i = 0; i < 8; ++i) {
    JobSpec spec;
    spec.graph =
        share(graph::gnp(30, 0.3, static_cast<std::uint64_t>(100 + i)));
    spec.method = Method::kSequential;
    flood.push_back(svc.submit(std::move(spec)));
  }
  EXPECT_TRUE(tb.cancel());
  EXPECT_EQ(tb.state->wait(), JobStatus::kCancelled);

  std::size_t rejected = 0;
  for (const auto& t : flood)
    if (t.state->wait() == JobStatus::kRejected) ++rejected;
  EXPECT_EQ(rejected, 6u);  // 8 offered, 2 slots
  EXPECT_EQ(svc.stats().rejected, rejected);
}

TEST(SolveService, TryPollIsNonBlockingAndEventuallyReady) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(graph::complement(graph::p_hat(50, 0.4, 0.9, 29)));
  spec.method = Method::kSequential;
  JobTicket t = svc.submit(std::move(spec));

  while (svc.try_poll(t) == nullptr) std::this_thread::yield();
  EXPECT_EQ(svc.try_poll(t)->best_size, t.state->result().best_size);
}

TEST(SolveService, PartitionDeviceSlicesSmCountExactly) {
  device::DeviceSpec base = device::DeviceSpec::host_scaled();
  for (int workers : {1, 2, 3, base.num_sms, base.num_sms + 3}) {
    auto slices = SolveService::partition_device(base, workers);
    ASSERT_EQ(static_cast<int>(slices.size()), workers);
    int total = 0;
    for (const auto& s : slices) {
      EXPECT_GE(s.num_sms, 1);
      total += s.num_sms;
    }
    if (workers <= base.num_sms) EXPECT_EQ(total, base.num_sms);
  }
}

TEST(SolveService, SubmitAfterShutdownIsRejected) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);
  svc.shutdown();

  JobSpec spec;
  spec.graph = share(graph::path(8));
  spec.method = Method::kSequential;
  JobTicket t = svc.submit(std::move(spec));
  EXPECT_EQ(t.state->wait(), JobStatus::kRejected);
}

}  // namespace
}  // namespace gvc::service

// Dead-owner adoption/abandon coverage: what happens to a ResultCache
// in-flight registration when the owning job dies (cancel/expiry) while
// other submissions race the same key. The single-threaded tests pin the
// exact adoption and owner-guard semantics; the torture tests run the
// races for real and are part of the TSan CI job. Also covers
// JobState::add_waiter — the terminal-transition callback the net server's
// completion bus is built on.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/result_cache.hpp"
#include "service/solve_service.hpp"

namespace gvc::service {
namespace {

CacheKey key_of(std::uint64_t id) {
  CacheKey k;
  k.graph_hash = id;
  k.config_hash = ~id;
  k.num_vertices = 5;
  k.num_edges = 4;
  return k;
}

std::shared_ptr<JobState> job_for(const CacheKey& k, JobId id) {
  JobSpec spec;
  static const auto g = std::make_shared<graph::CsrGraph>(graph::path(5));
  spec.graph = g;
  return std::make_shared<JobState>(id, std::move(spec), k);
}

parallel::ParallelResult complete_result(int best) {
  parallel::ParallelResult r;
  r.outcome = vc::Outcome::kOptimal;
  r.best_size = best;
  r.seconds = 1.0;
  return r;
}

// ---------------------------------------------------------------------------
// Deterministic semantics first: adoption, and the owner guard on abandon.
// ---------------------------------------------------------------------------

TEST(DeadOwner, AdoptionAndOwnerGuardedSweep) {
  ResultCache cache(16);
  const CacheKey k = key_of(1);
  parallel::ParallelResult out;
  std::shared_ptr<JobState> owner_out;

  // A registers as owner, then dies while queued.
  auto a = job_for(k, 1);
  ASSERT_EQ(cache.acquire(k, a, &out, &owner_out),
            ResultCache::Outcome::kMiss);
  ASSERT_TRUE(a->cancel(dropped_result(vc::Outcome::kCancelled)));

  // B must ADOPT the key (kMiss), not coalesce onto the corpse.
  auto b = job_for(k, 2);
  ASSERT_EQ(cache.acquire(k, b, &out, &owner_out),
            ResultCache::Outcome::kMiss);

  // The worker that eventually dequeues dead A sweeps it — the owner guard
  // must keep B's registration alive...
  cache.abandon(k, a.get());
  auto c = job_for(k, 3);
  ASSERT_EQ(cache.acquire(k, c, &out, &owner_out),
            ResultCache::Outcome::kInflight);
  ASSERT_EQ(owner_out.get(), b.get());

  // ...so B's completion stores the record for everyone.
  cache.complete(k, complete_result(3), b.get());
  auto d = job_for(k, 4);
  EXPECT_EQ(cache.acquire(k, d, &out, &owner_out),
            ResultCache::Outcome::kHit);
  EXPECT_EQ(out.best_size, 3);
}

TEST(DeadOwner, OwnerAbandonDropsOwnRegistration) {
  ResultCache cache(16);
  const CacheKey k = key_of(2);
  parallel::ParallelResult out;
  std::shared_ptr<JobState> owner_out;

  auto a = job_for(k, 1);
  ASSERT_EQ(cache.acquire(k, a, &out, &owner_out),
            ResultCache::Outcome::kMiss);
  cache.abandon(k, a.get());  // owner matches: registration gone
  auto b = job_for(k, 2);
  EXPECT_EQ(cache.acquire(k, b, &out, &owner_out),
            ResultCache::Outcome::kMiss);
}

// ---------------------------------------------------------------------------
// Concurrent owner death, raw cache: killers cancel+sweep the owner while
// adopters race acquire/complete on the same key. Invariants checked every
// round; the scheduling chaos is the point (TSan CI runs this).
// ---------------------------------------------------------------------------

TEST(DeadOwner, ConcurrentOwnerDeathTortureOnCache) {
  ResultCache cache(1024);
  constexpr int kRounds = 150;
  constexpr int kAdopters = 3;

  for (int round = 0; round < kRounds; ++round) {
    // Fresh key each round: a completed record from a prior round would
    // otherwise short-circuit the next round's registration as kHit.
    const CacheKey k = key_of(1000 + static_cast<std::uint64_t>(round));
    auto owner = job_for(k, static_cast<JobId>(round * 100));
    parallel::ParallelResult out;
    std::shared_ptr<JobState> owner_out;
    ASSERT_EQ(cache.acquire(k, owner, &out, &owner_out),
              ResultCache::Outcome::kMiss);

    std::atomic<int> winners{0};
    std::thread killer([&] {
      owner->cancel(dropped_result(vc::Outcome::kCancelled));
      cache.abandon(k, owner.get());  // the worker's sweep of the dead job
    });
    std::vector<std::thread> adopters;
    adopters.reserve(kAdopters);
    for (int t = 0; t < kAdopters; ++t) {
      adopters.emplace_back([&, t] {
        auto fresh = job_for(k, static_cast<JobId>(round * 100 + t + 1));
        parallel::ParallelResult res;
        std::shared_ptr<JobState> inflight;
        switch (cache.acquire(k, fresh, &res, &inflight)) {
          case ResultCache::Outcome::kMiss:
            // This thread adopted (or re-registered) the key; finish it.
            winners.fetch_add(1);
            fresh->finish(JobStatus::kDone, complete_result(7), 0.0, 0.0);
            cache.complete(k, complete_result(7), fresh.get());
            break;
          case ResultCache::Outcome::kInflight:
            // Coalesced onto SOME live registration — never a null owner.
            EXPECT_NE(inflight, nullptr);
            break;
          case ResultCache::Outcome::kHit:
            EXPECT_EQ(res.best_size, 7);
            break;
          case ResultCache::Outcome::kBypass:
            ADD_FAILURE() << "bypass impossible: budgets are identical";
            break;
        }
      });
    }
    killer.join();
    for (auto& th : adopters) th.join();

    // Whatever interleaving happened, the key must end usable: either a
    // stored record (some adopter won) or cleanly empty (the sweep landed
    // after every adopter had already been served kInflight by the
    // pre-death registration — then nobody completed it).
    auto probe = job_for(k, static_cast<JobId>(round * 100 + 99));
    const auto outcome = cache.acquire(k, probe, &out, &owner_out);
    if (winners.load() > 0 && outcome != ResultCache::Outcome::kHit) {
      // An adopter completed the key, but a still-live registration from a
      // coalesced path may shadow it; kInflight is acceptable only with a
      // live owner.
      ASSERT_EQ(outcome, ResultCache::Outcome::kInflight);
      EXPECT_NE(owner_out, nullptr);
    }
    if (outcome == ResultCache::Outcome::kMiss)
      cache.abandon(k, probe.get());  // leave the key clean for next round
  }
}

// ---------------------------------------------------------------------------
// Concurrent owner death through the full service: submitters flood one
// spec while cancellers kill the tickets as fast as they can. The service
// must neither wedge (a dead owner pinning the key would starve every
// later identical submission) nor leak registrations.
// ---------------------------------------------------------------------------

TEST(DeadOwner, ConcurrentOwnerDeathThroughService) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.partition_device = false;
  auto graph = std::make_shared<graph::CsrGraph>(graph::gnp(40, 0.2, 17));

  SolveService svc(opts);
  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 40;
  std::atomic<int> non_terminal{0};
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JobSpec spec;
        spec.graph = graph;
        spec.config.grid_override = 1;
        spec.config.start_depth = 2;
        spec.config.worklist_capacity = 128;
        JobTicket ticket = svc.submit(std::move(spec));
        if (!ticket.valid()) continue;
        // Every third ticket is killed immediately — often while it is the
        // key's in-flight owner, which is exactly the dead-owner race.
        if ((t + i) % 3 == 0) ticket.cancel();
        const JobStatus status = ticket.state->wait();
        if (!is_terminal(status)) non_terminal.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(non_terminal.load(), 0);

  // The key must not be wedged by any dead owner: a final submission
  // completes with a real record.
  JobSpec spec;
  spec.graph = graph;
  spec.config.grid_override = 1;
  spec.config.start_depth = 2;
  spec.config.worklist_capacity = 128;
  JobTicket last = svc.submit(std::move(spec));
  ASSERT_TRUE(last.valid());
  const parallel::ParallelResult& r = svc.wait(last);
  EXPECT_EQ(r.outcome, vc::Outcome::kOptimal);

  svc.shutdown();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache.inflight_entries, 0u) << "leaked registration";
}

// ---------------------------------------------------------------------------
// add_waiter: the JobState terminal callback the net server relies on.
// ---------------------------------------------------------------------------

TEST(DeadOwner, AddWaiterFiresOncePerRegistrationOnFinish) {
  auto job = job_for(key_of(9), 1);
  std::atomic<int> fired{0};
  job->add_waiter([&] { fired.fetch_add(1); });
  job->add_waiter([&] { fired.fetch_add(1); });  // multicast
  EXPECT_EQ(fired.load(), 0);
  job->finish(JobStatus::kDone, complete_result(1), 0.0, 0.0);
  EXPECT_EQ(fired.load(), 2);
  job->finish(JobStatus::kDone, complete_result(1), 0.0, 0.0);  // no-op
  EXPECT_EQ(fired.load(), 2);
}

TEST(DeadOwner, AddWaiterFiresImmediatelyWhenAlreadyTerminal) {
  auto job = job_for(key_of(9), 2);
  job->cancel(dropped_result(vc::Outcome::kCancelled));
  bool fired = false;
  job->add_waiter([&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(DeadOwner, AddWaiterRacesTerminalTransition) {
  // Registering waiters from one thread while another finishes the job:
  // every waiter fires exactly once, whichever side of the transition it
  // lands on.
  for (int round = 0; round < 100; ++round) {
    auto job = job_for(key_of(9), static_cast<JobId>(round));
    std::atomic<int> fired{0};
    constexpr int kWaiters = 8;
    std::thread registrar([&] {
      for (int i = 0; i < kWaiters; ++i)
        job->add_waiter([&] { fired.fetch_add(1); });
    });
    std::thread finisher([&] {
      job->finish(JobStatus::kDone, complete_result(2), 0.0, 0.0);
    });
    registrar.join();
    finisher.join();
    EXPECT_EQ(fired.load(), kWaiters) << "round " << round;
  }
}

}  // namespace
}  // namespace gvc::service

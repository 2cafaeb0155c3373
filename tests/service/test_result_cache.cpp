#include "service/result_cache.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "graph/generators.hpp"

namespace gvc::service {
namespace {

CacheKey key_of(std::uint64_t id) {
  CacheKey k;
  k.graph_hash = id;
  k.config_hash = ~id;
  k.num_vertices = static_cast<graph::Vertex>(id);
  k.num_edges = static_cast<std::int64_t>(id) * 2;
  return k;
}

parallel::ParallelResult result_of(int best,
                                   vc::Outcome outcome = vc::Outcome::kOptimal,
                                   double seconds = 1.0) {
  parallel::ParallelResult r;
  r.outcome = outcome;
  r.best_size = best;
  r.tree_nodes = static_cast<std::uint64_t>(best) * 10;
  r.seconds = seconds;
  return r;
}

std::shared_ptr<JobState> job_for(const CacheKey& k, JobId id = 1,
                                  vc::Limits limits = {},
                                  double deadline_s = 0.0) {
  JobSpec spec;
  static const auto g = std::make_shared<graph::CsrGraph>(graph::path(3));
  spec.graph = g;
  spec.limits = limits;
  spec.deadline_s = deadline_s;
  return std::make_shared<JobState>(id, std::move(spec), k);
}

/// Stores `r` under `k` the way the service does: a fresh job acquires the
/// key (a miss) and completes it as the owner.
void store(ResultCache& cache, const CacheKey& k,
           const parallel::ParallelResult& r) {
  auto job = job_for(k, 100);
  ASSERT_EQ(cache.acquire(k, job, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  cache.complete(k, r, job.get());
}

/// True if `k` serves a completed entry (filling `*out`). A probe that
/// misses registers its job, so it abandons the key again to leave the
/// cache as it found it.
bool probe(ResultCache& cache, const CacheKey& k,
           parallel::ParallelResult* out = nullptr) {
  auto job = job_for(k, 200);
  const ResultCache::Outcome o = cache.acquire(k, job, out, nullptr);
  if (o == ResultCache::Outcome::kMiss) cache.abandon(k, job.get());
  return o == ResultCache::Outcome::kHit;
}

TEST(ResultCache, MissThenCompleteThenHit) {
  ResultCache cache(4);
  auto owner = job_for(key_of(1), 1);
  EXPECT_EQ(cache.acquire(key_of(1), owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  cache.complete(key_of(1), result_of(7), owner.get());
  parallel::ParallelResult out;
  ASSERT_TRUE(probe(cache, key_of(1), &out));
  EXPECT_EQ(out.best_size, 7);
  EXPECT_EQ(out.tree_nodes, 70u);

  ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.completed_entries, 1u);
}

TEST(ResultCache, LruEvictsOldestCompletedEntry) {
  ResultCache cache(2);
  store(cache, key_of(1), result_of(1));
  store(cache, key_of(2), result_of(2));
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(probe(cache, key_of(1)));
  store(cache, key_of(3), result_of(3));

  EXPECT_TRUE(probe(cache, key_of(1)));
  EXPECT_FALSE(probe(cache, key_of(2)));
  EXPECT_TRUE(probe(cache, key_of(3)));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().completed_entries, 2u);
}

TEST(ResultCache, AcquireMissRegistersInflightOwner) {
  ResultCache cache(4);
  const CacheKey k = key_of(9);
  auto owner = job_for(k, 1);

  EXPECT_EQ(cache.acquire(k, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  EXPECT_EQ(cache.stats().inflight_entries, 1u);

  // A second identical submission coalesces onto the registered owner.
  auto dup = job_for(k, 2);
  std::shared_ptr<JobState> out_owner;
  EXPECT_EQ(cache.acquire(k, dup, nullptr, &out_owner),
            ResultCache::Outcome::kInflight);
  EXPECT_EQ(out_owner.get(), owner.get());
  EXPECT_EQ(cache.stats().inflight_hits, 1u);

  // Completion flips the entry to a served hit.
  cache.complete(k, result_of(5), owner.get());
  parallel::ParallelResult got;
  EXPECT_EQ(cache.acquire(k, job_for(k, 3), &got, nullptr),
            ResultCache::Outcome::kHit);
  EXPECT_EQ(got.best_size, 5);
  EXPECT_EQ(cache.stats().inflight_entries, 0u);
  EXPECT_EQ(cache.stats().completed_entries, 1u);
}

TEST(ResultCache, AbandonDropsInflightRegistration) {
  ResultCache cache(4);
  const CacheKey k = key_of(11);
  auto owner = job_for(k);
  ASSERT_EQ(cache.acquire(k, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  cache.abandon(k, owner.get());
  EXPECT_EQ(cache.stats().inflight_entries, 0u);
  // The key is claimable again.
  EXPECT_EQ(cache.acquire(k, job_for(k, 2), nullptr, nullptr),
            ResultCache::Outcome::kMiss);
}

TEST(ResultCache, AbandonNeverDropsCompletedEntries) {
  ResultCache cache(4);
  auto owner = job_for(key_of(1));
  ASSERT_EQ(cache.acquire(key_of(1), owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  cache.complete(key_of(1), result_of(1), owner.get());
  cache.abandon(key_of(1), owner.get());
  EXPECT_TRUE(probe(cache, key_of(1)));
}

TEST(ResultCache, InflightEntriesArePinnedAcrossEviction) {
  ResultCache cache(1);
  const CacheKey pinned = key_of(50);
  auto owner = job_for(pinned);
  ASSERT_EQ(cache.acquire(pinned, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  // Churn completed entries through the 1-slot LRU.
  store(cache, key_of(1), result_of(1));
  store(cache, key_of(2), result_of(2));
  store(cache, key_of(3), result_of(3));
  // The in-flight registration survived; completing it serves hits.
  cache.complete(pinned, result_of(50), owner.get());
  parallel::ParallelResult out;
  ASSERT_TRUE(probe(cache, pinned, &out));
  EXPECT_EQ(out.best_size, 50);
}

TEST(ResultCache, FirstResultWinsOnDoubleComplete) {
  // A kBypass job (same key, different budgets) may finish before the
  // registered owner: whichever completes first stores the record, and
  // the other's complete() only refreshes recency.
  ResultCache cache(4);
  const CacheKey k = key_of(1);
  auto owner = job_for(k, 1);
  ASSERT_EQ(cache.acquire(k, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  auto bypass = job_for(k, 2, {}, 5.0);
  ASSERT_EQ(cache.acquire(k, bypass, nullptr, nullptr),
            ResultCache::Outcome::kBypass);
  cache.complete(k, result_of(1), bypass.get());
  cache.complete(k, result_of(2), owner.get());  // second: ignored
  parallel::ParallelResult out;
  ASSERT_TRUE(probe(cache, k, &out));
  EXPECT_EQ(out.best_size, 1);
  EXPECT_EQ(cache.stats().completed_entries, 1u);
  EXPECT_EQ(cache.stats().inflight_entries, 0u);
}

TEST(ResultCache, HitRatioCountsServedOverProbes) {
  ResultCache cache(4);
  auto owner = job_for(key_of(1));
  ASSERT_EQ(cache.acquire(key_of(1), owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);                           // miss
  cache.complete(key_of(1), result_of(1), owner.get());
  EXPECT_TRUE(probe(cache, key_of(1)));                             // hit
  EXPECT_EQ(cache.acquire(key_of(1), job_for(key_of(1), 2), nullptr,
                          nullptr),
            ResultCache::Outcome::kHit);                            // hit
  EXPECT_FALSE(probe(cache, key_of(2)));                            // miss
  EXPECT_DOUBLE_EQ(cache.stats().hit_ratio(), 0.5);
}

TEST(ResultCache, RefusesIncompleteOutcomes) {
  // Limit hits, deadline and cancellation records are load-dependent, not
  // canonical: admission refuses all of them with one rule.
  ResultCache cache(4);
  for (vc::Outcome o : {vc::Outcome::kFeasible, vc::Outcome::kNodeLimit,
                        vc::Outcome::kTimeLimit, vc::Outcome::kDeadline,
                        vc::Outcome::kCancelled}) {
    store(cache, key_of(1), result_of(1, o));
    EXPECT_FALSE(probe(cache, key_of(1))) << vc::to_string(o);
  }
  EXPECT_EQ(cache.stats().refused, 5u);
  EXPECT_EQ(cache.stats().completed_entries, 0u);
  // Complete outcomes are admitted.
  store(cache, key_of(1), result_of(1, vc::Outcome::kInfeasible));
  EXPECT_TRUE(probe(cache, key_of(1)));
}

TEST(ResultCache, RefusalReleasesInflightRegistration) {
  // A worker whose solve was cancelled completes with an incomplete
  // outcome; the key must become claimable again so the next identical
  // submission re-solves instead of coalescing onto a dead entry.
  ResultCache cache(4);
  const CacheKey k = key_of(21);
  auto owner = job_for(k);
  ASSERT_EQ(cache.acquire(k, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  cache.complete(k, result_of(3, vc::Outcome::kCancelled), owner.get());
  EXPECT_EQ(cache.stats().inflight_entries, 0u);
  EXPECT_EQ(cache.acquire(k, job_for(k, 2), nullptr, nullptr),
            ResultCache::Outcome::kMiss);
}

TEST(ResultCache, StoredEntryIsNeverDowngraded) {
  // A complete record, once stored, is not replaced by a later incomplete
  // one for the same key.
  ResultCache cache(4);
  const CacheKey k = key_of(1);
  auto owner = job_for(k, 1);
  ASSERT_EQ(cache.acquire(k, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  vc::Limits tight;
  tight.max_tree_nodes = 3;
  auto bypass = job_for(k, 2, tight);
  ASSERT_EQ(cache.acquire(k, bypass, nullptr, nullptr),
            ResultCache::Outcome::kBypass);
  cache.complete(k, result_of(9, vc::Outcome::kOptimal), owner.get());
  cache.complete(k, result_of(5, vc::Outcome::kFeasible), bypass.get());
  parallel::ParallelResult out;
  ASSERT_TRUE(probe(cache, k, &out));
  EXPECT_EQ(out.best_size, 9);
}

TEST(ResultCache, MinCacheSecondsSkipsCheapSolves) {
  ResultCache cache(4, /*min_cache_seconds=*/0.5);
  EXPECT_DOUBLE_EQ(cache.min_cache_seconds(), 0.5);
  store(cache, key_of(1), result_of(1, vc::Outcome::kOptimal, 0.001));
  EXPECT_FALSE(probe(cache, key_of(1)));
  EXPECT_EQ(cache.stats().refused, 1u);
  store(cache, key_of(2), result_of(2, vc::Outcome::kOptimal, 0.75));
  EXPECT_TRUE(probe(cache, key_of(2)));
  EXPECT_EQ(cache.stats().completed_entries, 1u);
}

TEST(ResultCache, MinCacheSecondsReleasesInflightRegistration) {
  ResultCache cache(4, /*min_cache_seconds=*/0.5);
  const CacheKey k = key_of(31);
  auto owner = job_for(k);
  ASSERT_EQ(cache.acquire(k, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);
  cache.complete(k, result_of(3, vc::Outcome::kOptimal, 0.001), owner.get());
  EXPECT_EQ(cache.stats().inflight_entries, 0u);
  EXPECT_EQ(cache.stats().completed_entries, 0u);
  EXPECT_EQ(cache.acquire(k, job_for(k, 2), nullptr, nullptr),
            ResultCache::Outcome::kMiss);
}

TEST(ResultCache, ZeroMinCacheSecondsStoresEverythingComplete) {
  ResultCache cache(4);  // default 0
  store(cache, key_of(1), result_of(1, vc::Outcome::kOptimal, 0.0));
  EXPECT_TRUE(probe(cache, key_of(1)));
}

TEST(ResultCache, DifferentBudgetsBypassInsteadOfCoalescing) {
  // An in-flight solve runs under ONE control; a request with different
  // budgets must not be handed its possibly-truncated result.
  ResultCache cache(4);
  const CacheKey k = key_of(41);
  auto owner = job_for(k, 1);
  ASSERT_EQ(cache.acquire(k, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);

  vc::Limits tight;
  tight.max_tree_nodes = 3;
  auto budgeted = job_for(k, 2, tight);
  EXPECT_EQ(cache.acquire(k, budgeted, nullptr, nullptr),
            ResultCache::Outcome::kBypass);
  auto deadlined = job_for(k, 3, {}, 5.0);
  EXPECT_EQ(cache.acquire(k, deadlined, nullptr, nullptr),
            ResultCache::Outcome::kBypass);
  EXPECT_EQ(cache.stats().bypasses, 2u);
  // The owner's registration is untouched; same-budget submissions still
  // coalesce.
  auto twin = job_for(k, 4);
  std::shared_ptr<JobState> out_owner;
  EXPECT_EQ(cache.acquire(k, twin, nullptr, &out_owner),
            ResultCache::Outcome::kInflight);
  EXPECT_EQ(out_owner.get(), owner.get());
}

TEST(ResultCache, RefusalIsOwnerGuarded) {
  // A bypass job's refused record (cheap solve under min_cache_seconds,
  // or an incomplete outcome) must not tear down the owner's live
  // in-flight registration.
  ResultCache cache(4, /*min_cache_seconds=*/0.5);
  const CacheKey k = key_of(51);
  auto owner = job_for(k, 1);
  ASSERT_EQ(cache.acquire(k, owner, nullptr, nullptr),
            ResultCache::Outcome::kMiss);

  vc::Limits tight;
  tight.max_tree_nodes = 3;
  auto bypass = job_for(k, 2, tight);
  ASSERT_EQ(cache.acquire(k, bypass, nullptr, nullptr),
            ResultCache::Outcome::kBypass);
  cache.complete(k, result_of(3, vc::Outcome::kOptimal, 0.001),
                 bypass.get());  // refused: too cheap
  EXPECT_EQ(cache.stats().inflight_entries, 1u);  // registration survives
  cache.complete(k, result_of(3, vc::Outcome::kCancelled), bypass.get());
  EXPECT_EQ(cache.stats().inflight_entries, 1u);

  // A refusal from a job that never acquired the key is equally a no-op...
  auto stranger = job_for(k, 3);
  cache.complete(k, result_of(3, vc::Outcome::kCancelled), stranger.get());
  EXPECT_EQ(cache.stats().inflight_entries, 1u);
  // ...while the owner's own refusal releases the key.
  cache.complete(k, result_of(3, vc::Outcome::kCancelled), owner.get());
  EXPECT_EQ(cache.stats().inflight_entries, 0u);
}

}  // namespace
}  // namespace gvc::service

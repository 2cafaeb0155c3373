#pragma once

// Canonical-hash result cache with LRU eviction and in-flight deduplication,
// owned by one SolveService.
//
// The submit path calls acquire(): in one critical section it either serves
// a completed entry (kHit), attaches the caller to an identical job that is
// already queued/running (kInflight — the submissions coalesce and every
// ticket completes when that one solve does), or registers the caller's
// fresh job as the in-flight owner of the key (kMiss — the owner must later
// complete() or abandon() it). Every complete()/abandon() names the job
// making the call; only the registration's owner can release it.
//
// Eviction is LRU over *completed* entries only; in-flight registrations
// are pinned (evicting one would break the coalescing contract) and do not
// count toward capacity.
//
// Admission policy (complete()):
//
//  * Only complete outcomes (vc::is_complete — kOptimal/kInfeasible) are
//    stored. Limit hits, kDeadline and kCancelled records are refused with
//    one shared staleness rule: they are load-dependent, not canonical, so
//    serving them to future identical submissions would pin a transient
//    failure. A refusal also releases the caller's in-flight registration,
//    so the next identical submission re-solves.
//
//  * Cost-aware admission: solves cheaper than `min_cache_seconds` are
//    refused the same way, so floods of tiny instances cannot evict
//    expensive records (default 0 = store everything).
//
//  * A stored entry is immutable: the first complete record for a key wins.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/config.hpp"
#include "service/graph_hash.hpp"
#include "service/job.hpp"

namespace gvc::service {

class ResultCache {
 public:
  /// kBypass: an identical-key job is in flight but was submitted with
  /// different budgets (limits/deadline), so the caller must run its own
  /// solve instead of coalescing — without registering (the key already
  /// has an owner). Its completion may still store the record.
  enum class Outcome { kHit, kInflight, kMiss, kBypass };

  struct Stats {
    std::uint64_t hits = 0;           ///< served from a completed entry
    std::uint64_t misses = 0;         ///< acquire found nothing
    std::uint64_t inflight_hits = 0;  ///< coalesced onto a running job
    std::uint64_t bypasses = 0;       ///< in-flight key, incompatible
                                      ///< budgets: solved independently
    std::uint64_t inserts = 0;        ///< completed entries stored
    std::uint64_t refused = 0;        ///< records refused at admission
                                      ///< (incomplete outcome or cheaper
                                      ///< than min_cache_seconds)
    std::uint64_t evictions = 0;      ///< completed entries LRU-evicted
    std::size_t completed_entries = 0;
    std::size_t inflight_entries = 0;

    double hit_ratio() const {
      const std::uint64_t probes = hits + inflight_hits + misses;
      return probes == 0
                 ? 0.0
                 : static_cast<double>(hits + inflight_hits) /
                       static_cast<double>(probes);
    }
  };

  /// `min_cache_seconds`: cost-aware admission floor (see header comment);
  /// 0 stores every complete record.
  explicit ResultCache(std::size_t capacity, double min_cache_seconds = 0.0);

  /// See the header comment. `fresh` is the caller's new job (non-null).
  /// On kHit `*result_out` is filled; on kInflight `*owner_out` is the job
  /// every coalesced ticket shares; on kMiss `fresh` is registered as the
  /// key's in-flight owner.
  ///
  /// Dead-owner adoption: if the registered owner is already terminal (it
  /// was cancelled or expired while queued and no worker has swept the
  /// registration yet), the key is handed to `fresh` and the call reports
  /// kMiss — coalescing onto a job that will never produce a result would
  /// condemn the new submission to the old one's fate.
  Outcome acquire(const CacheKey& key, const std::shared_ptr<JobState>& fresh,
                  parallel::ParallelResult* result_out,
                  std::shared_ptr<JobState>* owner_out);

  /// Stores `result` for `key` under the admission policy. The first
  /// stored record wins: a later complete() of a stored key only refreshes
  /// its recency. A kBypass job stores through here too, without a
  /// registration of its own. A refused record (incomplete outcome, or
  /// cheaper than min_cache_seconds) stores nothing and, like abandon(),
  /// drops the key's in-flight registration if `owner` holds it.
  void complete(const CacheKey& key, const parallel::ParallelResult& result,
                const JobState* owner);

  /// Drops `owner`'s in-flight registration without a result (the job was
  /// rejected, expired, or cancelled). No-op if the key is not in flight
  /// or its registration belongs to another job — after a dead-owner
  /// adoption (see acquire), a worker sweeping the dead job must not tear
  /// down the adopter's live registration.
  void abandon(const CacheKey& key, const JobState* owner);

  std::size_t capacity() const { return capacity_; }
  double min_cache_seconds() const { return min_cache_seconds_; }
  Stats stats() const;

 private:
  struct Node {
    bool ready = false;
    parallel::ParallelResult result;          // valid when ready
    std::shared_ptr<JobState> inflight_owner;  // non-null iff !ready
    std::list<CacheKey>::iterator lru_it;      // valid when ready
  };

  using Map = std::unordered_map<CacheKey, Node, CacheKeyHash>;

  const std::size_t capacity_;
  const double min_cache_seconds_;
  mutable std::mutex mutex_;
  Map map_;
  std::list<CacheKey> lru_;  // front = most recently used completed key
  Stats stats_;

  void touch(Node& node);                    // move to LRU front
  void evict_down_to_capacity();

  // Registry exposure of the stats above (gvc_cache_*). Callbacks capture
  // `this` and take mutex_, so the handles are declared LAST: they
  // unregister (and thereby quiesce scrapes) before any other member dies.
  std::vector<obs::Registry::CallbackHandle> metric_handles_;
};

}  // namespace gvc::service

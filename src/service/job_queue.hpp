#pragma once

// Bounded admission queue for one SolveService worker shard.
//
// Ordering: highest priority first; within a priority, earliest absolute
// deadline first (no deadline sorts last); within that, FIFO by submission
// sequence, so equal-priority traffic is served fairly.
//
// Admission: a job whose deadline has already passed is refused outright
// (kRejectedExpired) — queueing it would only waste a worker dequeue.
//
// Backpressure: the queue holds at most `capacity` jobs. A push against a
// full queue either blocks the submitting thread until a worker drains an
// entry (FullPolicy::kBlock — the service's default, load sheds onto the
// callers) or fails immediately (FullPolicy::kReject — for callers that
// prefer an error to latency). A blocked push re-runs the FULL admission
// sequence (closed → deadline → capacity) on every wake, and its wait is
// bounded by the job's own deadline: the shard's worker may have gone
// stealing from a sibling queue, in which case nobody pops this queue for
// an arbitrarily long time and a deadline-carrying producer must expire on
// its own rather than sleep past its deadline.
//
// Shutdown: close() stops admission; pop() keeps draining what was admitted
// and returns nullptr once the queue is empty and closed.

#include <cstdint>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <vector>

#include "obs/metrics.hpp"
#include "service/job.hpp"

namespace gvc::service {

class JobQueue {
 public:
  enum class FullPolicy { kBlock, kReject };

  enum class PushOutcome {
    kAccepted,
    kRejectedFull,     ///< kReject policy and the queue was full
    kRejectedExpired,  ///< deadline already passed at admission
    kRejectedClosed,   ///< close() was called
  };

  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_expired = 0;
    std::uint64_t rejected_closed = 0;
    std::uint64_t blocked_pushes = 0;  ///< pushes that had to wait (kBlock)
    std::size_t max_size_seen = 0;
  };

  JobQueue(std::size_t capacity, FullPolicy policy);

  /// `deadline_abs` is the job's absolute expiry on the queue's monotonic
  /// clock (now_s() domain); <= 0 means no deadline.
  PushOutcome push(std::shared_ptr<JobState> job, double deadline_abs);

  /// Blocks until a job is available; nullptr once closed and drained.
  std::shared_ptr<JobState> pop();

  /// Non-blocking: the next job if one is queued, nullptr otherwise. This
  /// is the steal path — a sibling worker draining this shard — so it
  /// signals not_full_ exactly like pop(): a steal must free a producer
  /// blocked on this queue even though the shard's own worker never popped.
  std::shared_ptr<JobState> try_pop();

  /// Like pop(), but gives up after `seconds`. nullptr on timeout OR on
  /// closed-and-drained; `*closed_out` (optional) distinguishes the two.
  /// Stealing workers use this as their bounded sleep quantum so they come
  /// back to the steal scan instead of parking on their own shard forever.
  std::shared_ptr<JobState> pop_for(double seconds, bool* closed_out = nullptr);

  /// Stops admission and wakes all blocked pushers/poppers.
  void close();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  FullPolicy policy() const { return policy_; }
  Stats stats() const;

  /// Seconds on the queue's monotonic clock; submitters use it to derive
  /// deadline_abs = now_s() + deadline_s.
  static double now_s();

 private:
  struct Entry {
    std::shared_ptr<JobState> job;
    int priority = 0;
    double deadline_abs = 0.0;  ///< <= 0: none
    std::uint64_t seq = 0;

    /// True if this entry should run before `o`.
    bool before(const Entry& o) const;
  };

  const std::size_t capacity_;
  const FullPolicy policy_;

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Entry> heap_;  // std binary heap; front = next to run
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
  Stats stats_;

  /// std heap comparator: "less" = runs later, so the front runs next.
  static bool runs_later(const Entry& a, const Entry& b);
  void heap_push(Entry e);
  Entry heap_pop();
  /// The dequeue tail every pop shares: pops the front entry (nullptr if
  /// empty), unlocks, and signals not_full_.
  std::shared_ptr<JobState> take(std::unique_lock<std::mutex>& lock);

  // Registry exposure of the stats above (gvc_queue_*); a sharded service
  // registers one JobQueue per shard and the scrape sums the family.
  // Callbacks capture `this` and take mutex_ — declared LAST so they
  // unregister before any other member dies.
  std::vector<obs::Registry::CallbackHandle> metric_handles_;
};

}  // namespace gvc::service

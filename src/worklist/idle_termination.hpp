#pragma once

// The all-idle termination protocol of §IV-C, written once for both
// block-level load balancers: GlobalWorklist::remove (the attempt pops the
// queue) and WorkStealing's steal (the attempt scans the victims). A block
// that finds no work registers as waiting; once every block of the grid
// waits, no block is processing a node, so no work can ever appear again,
// and the last waiter's one rescan decides termination. Until then a waiter
// sleeps briefly and retries (the paper's nanosleep backoff). The PVC
// found-flag and the abort latch are folded in as signal_stop(). Producers
// call notify() after every push that makes work visible.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace gvc::worklist {

/// How a blocking acquisition ended.
enum class Acquired {
  kGot,   ///< work was taken
  kDone,  ///< every block waited on empty work, or a stop was signalled
};

class IdleTermination {
 public:
  /// Every one of the grid's `num_blocks` blocks must keep acquiring
  /// through this object until it sees kDone.
  explicit IdleTermination(int num_blocks) : num_blocks_(num_blocks) {
    GVC_CHECK(num_blocks > 0);
  }

  /// Retries `take` (one attempt at work; true when it got some) until it
  /// succeeds, a stop is signalled, or the last waiter's rescan finds
  /// nothing and latches done. A sleeper wakes early when `ready` holds
  /// (GlobalWorklist: the queue is non-empty) or on stop/done.
  template <typename Take, typename Ready>
  Acquired acquire(Take&& take, Ready&& ready) {
    for (;;) {
      if (finished()) return Acquired::kDone;
      if (take()) return Acquired::kGot;

      // Blocks only push while processing a node, i.e. outside acquire(),
      // so waiting == num_blocks implies there are no in-flight pushes, and
      // the acq_rel chain through waiting_ makes completed pushes visible
      // to the last waiter's rescan.
      if (waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_blocks_) {
        const bool got = take();
        if (!got) done_.store(true, std::memory_order_release);
        waiting_.fetch_sub(1, std::memory_order_acq_rel);
        if (got) return Acquired::kGot;
        cv_.notify_all();
        return Acquired::kDone;
      }
      {
        // The timeout guards against a notify lost between the failed take
        // and the wait.
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::microseconds(200),
                     [&] { return ready() || finished(); });
      }
      waiting_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  /// As above, waking early on stop/done only (WorkStealing's thieves).
  template <typename Take>
  Acquired acquire(Take&& take) {
    return acquire(take, [] { return false; });
  }

  /// Wakes one sleeper; it takes the new work or sleeps again.
  void notify() { cv_.notify_one(); }

  /// Stops every block, including those asleep in acquire().
  void signal_stop() {
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
  }

  bool stopped() const { return stop_.load(std::memory_order_acquire); }
  bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  bool finished() const { return stopped() || done(); }

  const int num_blocks_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<int> waiting_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Runs one blocking acquisition and charges its whole wait on the activity
/// clock, as SM cycles spent waiting are in Fig. 6: to kWorklistRemove when
/// it got work, to kTerminate when it ended. Returns whether it got work.
template <typename Acquire>
bool charged_acquire(util::ActivityAccumulator& activities,
                     Acquire&& acquire) {
  const std::uint64_t t0 = util::now_ns();
  const bool got = acquire() == Acquired::kGot;
  activities.add(
      got ? util::Activity::kWorklistRemove : util::Activity::kTerminate,
      util::now_ns() - t0);
  return got;
}

}  // namespace gvc::worklist

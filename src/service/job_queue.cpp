#include "service/job_queue.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace gvc::service {

JobQueue::JobQueue(std::size_t capacity, FullPolicy policy)
    : capacity_(capacity), policy_(policy) {
  GVC_CHECK_MSG(capacity_ > 0, "JobQueue capacity must be positive");

  obs::Registry& reg = obs::Registry::global();
  auto counter = [&](const char* name, const char* help,
                     std::uint64_t Stats::* field) {
    metric_handles_.push_back(reg.counter_fn(name, help, [this, field] {
      std::lock_guard<std::mutex> lock(mutex_);
      return static_cast<double>(stats_.*field);
    }));
  };
  counter("gvc_queue_pushed_total", "jobs admitted", &Stats::pushed);
  counter("gvc_queue_popped_total", "jobs dequeued by workers",
          &Stats::popped);
  counter("gvc_queue_rejected_full_total", "pushes refused by backpressure",
          &Stats::rejected_full);
  counter("gvc_queue_rejected_expired_total",
          "pushes refused with an already-passed deadline",
          &Stats::rejected_expired);
  counter("gvc_queue_rejected_closed_total", "pushes refused after close()",
          &Stats::rejected_closed);
  counter("gvc_queue_blocked_pushes_total",
          "pushes that waited on a full queue", &Stats::blocked_pushes);
  metric_handles_.push_back(
      reg.gauge("gvc_queue_depth", "jobs currently queued", [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<double>(heap_.size());
      }));
}

double JobQueue::now_s() { return service_now_s(); }

bool JobQueue::Entry::before(const Entry& o) const {
  if (priority != o.priority) return priority > o.priority;
  const bool a = deadline_abs > 0.0, b = o.deadline_abs > 0.0;
  if (a != b) return a;  // deadlined jobs ahead of open-ended ones
  if (a && deadline_abs != o.deadline_abs) return deadline_abs < o.deadline_abs;
  return seq < o.seq;
}

bool JobQueue::runs_later(const Entry& a, const Entry& b) {
  return b.before(a);
}

void JobQueue::heap_push(Entry e) {
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), runs_later);
}

JobQueue::Entry JobQueue::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), runs_later);
  Entry top = std::move(heap_.back());
  heap_.pop_back();
  return top;
}

JobQueue::PushOutcome JobQueue::push(std::shared_ptr<JobState> job,
                                     double deadline_abs) {
  GVC_CHECK(job != nullptr);
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) {
    ++stats_.rejected_closed;
    return PushOutcome::kRejectedClosed;
  }
  if (deadline_abs > 0.0 && now_s() >= deadline_abs) {
    ++stats_.rejected_expired;
    return PushOutcome::kRejectedExpired;
  }
  if (heap_.size() >= capacity_) {
    if (policy_ == FullPolicy::kReject) {
      ++stats_.rejected_full;
      return PushOutcome::kRejectedFull;
    }
    ++stats_.blocked_pushes;
    // Blocked wait, re-running the FULL admission sequence on every wake.
    // Two wake sources matter here and neither may be trusted blindly:
    //
    //  * a not_full_ signal can come from a STEAL (a sibling worker
    //    draining this shard) while this shard's own worker is off
    //    stealing elsewhere — the slot is real, but by the time we wake
    //    the deadline may have lapsed or another pusher may have taken it,
    //    so capacity and deadline are both re-checked before landing;
    //  * with the shard's worker gone stealing there may be NO pop (and no
    //    signal) for an arbitrarily long time, so a deadline-carrying
    //    producer bounds its own wait and expires in place instead of
    //    sleeping past its deadline.
    for (;;) {
      bool woke_with_slot = true;
      if (deadline_abs > 0.0) {
        const double remaining = deadline_abs - now_s();
        if (remaining <= 0.0) {
          ++stats_.rejected_expired;
          // A consumed not_full_ signal may be another blocked pusher's
          // only wakeup — pass it on since we are declining the slot.
          lock.unlock();
          not_full_.notify_one();
          return PushOutcome::kRejectedExpired;
        }
        woke_with_slot = not_full_.wait_for(
            lock, std::chrono::duration<double>(remaining),
            [&] { return closed_ || heap_.size() < capacity_; });
      } else {
        not_full_.wait(lock,
                       [&] { return closed_ || heap_.size() < capacity_; });
      }
      if (closed_) {
        ++stats_.rejected_closed;
        return PushOutcome::kRejectedClosed;
      }
      if (!woke_with_slot) continue;  // deadline hit: rejected at the top
      if (deadline_abs > 0.0 && now_s() >= deadline_abs) {
        ++stats_.rejected_expired;
        lock.unlock();
        not_full_.notify_one();
        return PushOutcome::kRejectedExpired;
      }
      if (heap_.size() < capacity_) break;
    }
  }

  Entry e;
  e.priority = job->spec().priority;
  e.deadline_abs = deadline_abs;
  e.seq = next_seq_++;
  e.job = std::move(job);
  heap_push(std::move(e));
  ++stats_.pushed;
  stats_.max_size_seen = std::max(stats_.max_size_seen, heap_.size());
  lock.unlock();
  not_empty_.notify_one();
  return PushOutcome::kAccepted;
}

std::shared_ptr<JobState> JobQueue::take(std::unique_lock<std::mutex>& lock) {
  if (heap_.empty()) return nullptr;
  Entry e = heap_pop();
  ++stats_.popped;
  lock.unlock();
  // Every dequeue frees a slot — a steal included, so a producer blocked
  // on this shard wakes even though the shard's own worker never popped.
  not_full_.notify_one();
  return std::move(e.job);
}

std::shared_ptr<JobState> JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [&] { return closed_ || !heap_.empty(); });
  return take(lock);  // null: closed and drained
}

std::shared_ptr<JobState> JobQueue::try_pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  return take(lock);
}

std::shared_ptr<JobState> JobQueue::pop_for(double seconds,
                                            bool* closed_out) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait_for(lock, std::chrono::duration<double>(seconds),
                      [&] { return closed_ || !heap_.empty(); });
  if (closed_out) *closed_out = closed_;
  return take(lock);  // null: timed out, or closed and drained
}

void JobQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::size_t JobQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return heap_.size();
}

JobQueue::Stats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace gvc::service

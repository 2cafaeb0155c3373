#include "worklist/global_worklist.hpp"

#include "util/check.hpp"

namespace gvc::worklist {

GlobalWorklist::GlobalWorklist(std::size_t capacity, std::size_t threshold,
                               int num_blocks)
    : queue_(capacity), threshold_(threshold), idle_(num_blocks) {
  GVC_CHECK_MSG(threshold <= queue_.capacity(),
                "threshold exceeds worklist capacity");
}

void GlobalWorklist::add(vc::DegreeArray node) {
  GVC_CHECK_MSG(queue_.try_push(std::move(node)), "worklist full while seeding");
  adds_.fetch_add(1, std::memory_order_relaxed);
  note_size();
  idle_.notify();
}

bool GlobalWorklist::try_donate(vc::DegreeArray&& node) {
  if (!poll_donate_gate()) return false;
  if (!queue_.try_push(std::move(node))) {
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  adds_.fetch_add(1, std::memory_order_relaxed);
  note_size();
  // Wake one sleeper; it will either take this entry or re-sleep.
  idle_.notify();
  return true;
}

void GlobalWorklist::note_size() {
  const std::uint64_t sz = queue_.size_approx();
  std::uint64_t prev = max_size_.load(std::memory_order_relaxed);
  while (sz > prev &&
         !max_size_.compare_exchange_weak(prev, sz, std::memory_order_relaxed)) {
  }
}

GlobalWorklist::RemoveOutcome GlobalWorklist::remove(vc::DegreeArray& out) {
  const RemoveOutcome got = idle_.acquire(
      [&] { return queue_.try_pop(out); },
      [&] { return !queue_.empty_approx(); });
  if (got == RemoveOutcome::kGot)
    removes_.fetch_add(1, std::memory_order_relaxed);
  return got;
}

WorklistStats GlobalWorklist::stats() const {
  WorklistStats s;
  s.adds = adds_.load();
  s.removes = removes_.load();
  s.donations_rejected_threshold = rejected_threshold_.load();
  s.donations_rejected_full = rejected_full_.load();
  s.max_size_seen = max_size_.load();
  return s;
}

}  // namespace gvc::worklist

#include "util/timer.hpp"

#include <ctime>

namespace gvc::util {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

const char* activity_name(Activity a) {
  switch (a) {
    case Activity::kWorklistAdd:           return "Add to worklist";
    case Activity::kWorklistRemove:        return "Remove from worklist";
    case Activity::kStackPush:             return "Push to stack";
    case Activity::kStackPop:              return "Pop from stack";
    case Activity::kTerminate:             return "Terminate";
    case Activity::kDegreeOneRule:         return "Degree-one rule";
    case Activity::kDegreeTwoTriangleRule: return "Degree-two-triangle rule";
    case Activity::kHighDegreeRule:        return "High-degree rule";
    case Activity::kFindMaxDegree:         return "Find max degree vertex";
    case Activity::kRemoveMaxVertex:       return "Remove maximum-degree vertex";
    case Activity::kRemoveNeighbors:       return "Remove neighbors of maximum-degree vertex";
    case Activity::kCount:                 break;
  }
  return "?";
}

ActivityTotals ActivityAccumulator::settle(std::uint64_t start_ns,
                                           std::uint64_t end_ns) const {
  ActivityTotals totals;
  totals.ns_ = ns_;
  if (nodes_ == 0) return totals;
  std::uint64_t exact = 0, sampled = 0;
  for (int i = 0; i < kNumActivities; ++i) {
    exact += ns_[i];
    sampled += sampled_[i];
  }
  // Node time: every node's window, from the first node to the exit,
  // without the waits inside it; likewise for the sampled windows.
  const std::uint64_t window_ns =
      window_ns_ + (gate_open_ ? end_ns - window_start_ : 0);
  const double node_ns = static_cast<double>(end_ns - first_node_ns_) -
                         static_cast<double>(node_waits_);
  const double sampled_ns =
      static_cast<double>(window_ns) - static_cast<double>(window_waits_);
  double scale =
      node_ns > 0.0 && sampled_ns > 0.0 ? node_ns / sampled_ns : 0.0;
  // Scopes lie inside the windows, so this only binds on charges that did
  // not come from a scope.
  const std::uint64_t elapsed = end_ns - start_ns;
  const double budget =
      elapsed > exact ? static_cast<double>(elapsed - exact) : 0.0;
  const double scaled = static_cast<double>(sampled) * scale;
  if (scaled > budget) scale *= budget / scaled;
  for (int i = 0; i < kNumActivities; ++i)
    totals.ns_[i] += static_cast<std::uint64_t>(
        static_cast<double>(sampled_[i]) * scale);
  return totals;
}

std::uint64_t ActivityTotals::total_ns() const {
  std::uint64_t sum = 0;
  for (std::uint64_t v : ns_) sum += v;
  return sum;
}

std::uint64_t ActivityAccumulator::total_ns() const {
  std::uint64_t sum = 0;
  for (int i = 0; i < kNumActivities; ++i) sum += ns_[i] + sampled_[i];
  return sum;
}

void ActivityAccumulator::merge(const ActivityAccumulator& other) {
  for (int i = 0; i < kNumActivities; ++i)
    ns_[i] += other.ns(static_cast<Activity>(i));
}

void ActivityAccumulator::merge(const ActivityTotals& totals) {
  for (int i = 0; i < kNumActivities; ++i) ns_[i] += totals.ns_[i];
}

}  // namespace gvc::util

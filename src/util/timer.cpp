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

std::uint64_t ActivityAccumulator::total_ns() const {
  std::uint64_t sum = 0;
  for (auto v : ns_) sum += v;
  return sum;
}

void ActivityAccumulator::merge(const ActivityAccumulator& other) {
  for (int i = 0; i < kNumActivities; ++i) ns_[i] += other.ns_[i];
}

}  // namespace gvc::util

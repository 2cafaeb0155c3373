#pragma once

// Wall-clock timing and per-activity cycle accounting.
//
// ActivityAccumulator mirrors how the paper instruments its kernels (§V-D):
// each thread block records, per activity, the number of "SM clock" cycles
// spent; breakdowns are normalized per block then averaged. Here the clock is
// now_ns() (std::chrono::steady_clock, a vDSO read of a few tens of ns),
// which plays the role of the SM cycle counter: every activity charge goes
// through it, so an activity is wall time on the monotonic clock, waiting
// included, like cycles on an SM.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace gvc::util {

/// Simple wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Monotonic nanosecond timestamp (wall clock). The only clock that charges
/// Fig. 6 activities (ActivityScope and the block loops' wait charges).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds of CPU time consumed by the calling thread: the block makespan
/// clock. VirtualDevice::launch reads it twice per block to charge the block
/// only for work it actually executed, so the simulated makespan is immune
/// to host oversubscription (a descheduled block accrues nothing, exactly
/// like an idle SM). A syscall (no vDSO path, hundreds of ns), so nothing
/// on a per-node path may call it.
std::uint64_t thread_cpu_ns();

/// Activities instrumented in the MVC/PVC kernels, matching Fig. 6 of the
/// paper: three work-distribution groups, three reduction rules, and three
/// branching steps, plus termination waiting.
enum class Activity : int {
  kWorklistAdd = 0,
  kWorklistRemove,
  kStackPush,
  kStackPop,
  kTerminate,
  kDegreeOneRule,
  kDegreeTwoTriangleRule,
  kHighDegreeRule,
  kFindMaxDegree,
  kRemoveMaxVertex,
  kRemoveNeighbors,
  kCount
};

inline constexpr int kNumActivities = static_cast<int>(Activity::kCount);

/// Human-readable label for an activity (as printed in Fig. 6's legend).
const char* activity_name(Activity a);

/// Per-block accumulator of nanoseconds spent in each activity.
/// Not thread-safe: each block owns one.
class ActivityAccumulator {
 public:
  ActivityAccumulator() { ns_.fill(0); }

  void add(Activity a, std::uint64_t ns) { ns_[static_cast<int>(a)] += ns; }

  std::uint64_t ns(Activity a) const { return ns_[static_cast<int>(a)]; }

  /// Sum over all activities.
  std::uint64_t total_ns() const;

  /// Element-wise merge of another accumulator into this one.
  void merge(const ActivityAccumulator& other);

 private:
  std::array<std::uint64_t, kNumActivities> ns_;
};

/// RAII scope that charges the elapsed monotonic time (now_ns) over its
/// lifetime to one activity of an accumulator.
class ActivityScope {
 public:
  ActivityScope(ActivityAccumulator& acc, Activity a)
      : acc_(acc), activity_(a), start_(now_ns()) {}
  ~ActivityScope() { acc_.add(activity_, now_ns() - start_); }

  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;

 private:
  ActivityAccumulator& acc_;
  Activity activity_;
  std::uint64_t start_;
};

/// Runs `fn` and returns its result, charging its wall time to `a` when
/// `acc` is non-null.
template <typename Fn>
auto timed(ActivityAccumulator* acc, Activity a, Fn&& fn) {
  if (!acc) return fn();
  ActivityScope scope(*acc, a);
  return fn();
}

}  // namespace gvc::util

#pragma once

// Wall-clock timing and per-activity cycle accounting.
//
// ActivityAccumulator mirrors how the paper instruments its kernels (§V-D):
// each thread block records, per activity, the number of "SM clock" cycles
// spent; breakdowns are normalized per block then averaged. Here the clock is
// now_ns() (std::chrono::steady_clock, a vDSO read of a few tens of ns),
// which plays the role of the SM cycle counter: every activity charge is
// wall time on it, waiting included, like cycles on an SM. An SM cycle read
// costs a few cycles; two of ours per scope, about ten scopes per tree node,
// would cost more than a cheap node's work. So a block times its node work on
// a fixed-stride sample of its nodes (every kSampleStride-th, starting with
// the first) and scales the sample up to its node time when it exits; waits
// are timed on every occurrence.

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
/// Fig. 6 activities (ActivityScope, the block loops' wait charges, and the
/// node windows and block bounds ActivityAccumulator::settle scales by).
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

/// Per-activity nanoseconds a block reports once its charges are settled
/// (device::BlockStats::activities).
class ActivityTotals {
 public:
  std::uint64_t ns(Activity a) const { return ns_[static_cast<int>(a)]; }

  /// Sum over all activities.
  std::uint64_t total_ns() const;

 private:
  friend class ActivityAccumulator;
  std::array<std::uint64_t, kNumActivities> ns_{};
};

/// Per-block accumulator of nanoseconds spent in each activity.
/// Not thread-safe: each block owns one.
///
/// Two kinds of charge:
///  * exact — add(), on every occurrence: the waits (worklist remove, steal,
///    terminate), timed by the caller;
///  * scoped — ActivityScope and timed(): node work, timed only while the
///    sample gate is open. The gate is open until the block's first node, so
///    scopes before it are exact. From then on begin_node(), called once per
///    admitted node, opens it on every kSampleStride-th node and closes it on
///    the others; work charged between two nodes belongs to the earlier one.
///
/// A node's window runs from its begin_node() to the next one (or to the
/// block's exit). settle(), at block exit, scales the sampled charges by the
/// block's node time over the sampled nodes' time, each without the waits
/// inside it: the share of node time the scopes took is measured on the
/// sample and applied to all of it. So the estimate cannot exceed the time
/// the block spent on nodes, and an expensive node missed by the sample
/// still counts through its window. An accumulator that never sees
/// begin_node() charges everything exactly.
class ActivityAccumulator {
 public:
  static constexpr std::uint64_t kSampleStride = 16;

  /// Exact charge, taken whether the gate is open or not.
  void add(Activity a, std::uint64_t ns) {
    ns_[static_cast<int>(a)] += ns;
    if (nodes_ > 0) {
      node_waits_ += ns;
      if (gate_open_) window_waits_ += ns;
    }
  }

  /// Starts the next admitted node: opens the gate on every
  /// kSampleStride-th node, starting with the first, and closes it on the
  /// others. Reads the clock only on a sampled node and on the node after
  /// one, where a sampled window opens or closes.
  void begin_node() {
    const bool sample = nodes_ % kSampleStride == 0;
    begin_node(sample || gate_open_ ? now_ns() : 0);
  }

  /// begin_node() at clock reading `now` (read by the caller when a window
  /// opens or closes; ignored otherwise).
  void begin_node(std::uint64_t now) {
    const bool sample = nodes_ % kSampleStride == 0;
    if (nodes_ == 0) first_node_ns_ = now;
    else if (gate_open_) window_ns_ += now - window_start_;
    if (sample) window_start_ = now;
    gate_open_ = sample;
    ++nodes_;
  }

  /// Whether a scope reads the clock.
  bool gate_open() const { return gate_open_; }

  /// A scope's charge: exact before the first node, a node sample after.
  void charge(Activity a, std::uint64_t ns) {
    (nodes_ == 0 ? ns_ : sampled_)[static_cast<int>(a)] += ns;
  }

  /// The block's charges at its exit, for a block that ran from `start_ns`
  /// to `end_ns` on now_ns(): the exact charges plus the sampled ones scaled
  /// by node time / sampled node time, then clamped to the block's elapsed
  /// time minus its exact charges.
  ActivityTotals settle(std::uint64_t start_ns, std::uint64_t end_ns) const;

  /// Charged nanoseconds so far; sampled charges count unscaled.
  std::uint64_t ns(Activity a) const {
    const int i = static_cast<int>(a);
    return ns_[i] + sampled_[i];
  }

  /// Sum over all activities.
  std::uint64_t total_ns() const;

  /// Adds another accumulator's charges, ns(a) for each activity.
  void merge(const ActivityAccumulator& other);

  /// Adds a block's settled charges as exact ones.
  void merge(const ActivityTotals& totals);

 private:
  std::array<std::uint64_t, kNumActivities> ns_{};       // exact charges
  std::array<std::uint64_t, kNumActivities> sampled_{};  // unscaled samples
  std::uint64_t nodes_ = 0;
  bool gate_open_ = true;
  std::uint64_t first_node_ns_ = 0;  // the first begin_node()
  std::uint64_t window_start_ = 0;   // the open sampled window's begin
  std::uint64_t window_ns_ = 0;      // closed sampled windows
  std::uint64_t window_waits_ = 0;   // exact charges inside them
  std::uint64_t node_waits_ = 0;     // exact charges after the first node
};

/// RAII scope that charges the elapsed monotonic time (now_ns) over its
/// lifetime to one activity of an accumulator. On a closed gate it reads
/// no clock and charges nothing.
class ActivityScope {
 public:
  ActivityScope(ActivityAccumulator& acc, Activity a)
      : acc_(acc),
        activity_(a),
        open_(acc.gate_open()),
        start_(open_ ? now_ns() : 0) {}
  ~ActivityScope() {
    if (open_) acc_.charge(activity_, now_ns() - start_);
  }

  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;

 private:
  ActivityAccumulator& acc_;
  Activity activity_;
  bool open_;
  std::uint64_t start_;
};

/// Runs `fn` and returns its result, charging its wall time to `a` when
/// `acc` is non-null and its gate is open.
template <typename Fn>
auto timed(ActivityAccumulator* acc, Activity a, Fn&& fn) {
  if (acc == nullptr || !acc->gate_open()) return fn();
  ActivityScope scope(*acc, a);
  return fn();
}

}  // namespace gvc::util

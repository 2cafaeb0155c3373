#pragma once

// obs/phase — per-worker cumulative phase profile: the live Fig. 6
// breakdown. Each service worker owns a padded slot of atomic per-phase
// nanosecond totals; the progress monitor and end-of-run report read them
// concurrently with relaxed loads (monotone counters, same contract as
// obs::Counter).
//
// Where the numbers come from: reduce / branch / steal phases are folded
// out of the solver's existing per-block ActivityAccumulator (the Fig. 6
// instrumentation, CPU-ns summed over all blocks of a launch) once per
// job — the solver hot path is untouched. idle and cache are measured
// directly in the service worker loop as wall time (queue-pop waits and
// result-cache writes). The split therefore mixes block-CPU and worker-
// wall nanoseconds; it is a breakdown, not a wall-clock reconciliation —
// docs/observability.md spells this out.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace gvc::obs {

enum class Phase : int {
  kReduce = 0,  // the three reduction rules
  kBranch,      // maximum-degree scan, branch application, stack bookkeeping
  kSteal,       // worklist traffic: donations, removals, steals
  kCache,       // result-cache writes on the worker path
  kIdle,        // queue-pop waits + in-launch termination waiting
  kOther,       // solve time with no activity attribution (sequential jobs)
  kCount
};
inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

const char* phase_name(Phase p);

/// Coarse phase each Fig. 6 activity folds into.
Phase phase_of_activity(util::Activity a);

class PhaseTable {
 public:
  explicit PhaseTable(int slots) : slots_(static_cast<std::size_t>(slots)) {}

  int slots() const { return static_cast<int>(slots_.size()); }

  void add(int slot, Phase p, std::uint64_t ns) noexcept {
    slots_[static_cast<std::size_t>(slot)]
        .ns[static_cast<std::size_t>(p)]
        .fetch_add(ns, std::memory_order_relaxed);
  }

  /// Fold a launch's merged activity accumulator into `slot`.
  void add_activities(int slot, const util::ActivityAccumulator& acc) noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kPhaseCount> ns{};
    std::uint64_t total_ns() const;
    double fraction(Phase p) const;
    void merge(const Snapshot& other);
  };

  Snapshot snapshot(int slot) const;
  Snapshot merged() const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kPhaseCount> ns{};
  };
  std::vector<Slot> slots_;
};

/// One-line split: "reduce 41.2% branch 30.1% steal 3.4% ...". Phases with
/// zero time are elided; an all-zero snapshot renders as "no samples".
std::string format_phase_split(const PhaseTable::Snapshot& snap);

/// Multi-line per-worker table for end-of-run reports.
std::string format_phase_table(const PhaseTable& table);

}  // namespace gvc::obs

#pragma once

// The global worklist of §IV-A/§IV-C: a broker queue of self-contained tree
// nodes (degree arrays), plus
//   * the donation policy — a branching block adds a child only while the
//     queue holds fewer than `threshold` entries, otherwise it keeps the
//     child on its local stack; and
//   * the termination protocol — a failed removal distinguishes "the queue
//     is transiently empty but blocks are still working" (wait and retry)
//     from "every block in the grid is waiting on an empty queue" (done).
//     remove() runs worklist::IdleTermination, which WorkStealing's deque
//     ensemble runs too, with "pop the queue" as the attempt.
// The PVC found-flag (§IV-A) is folded in as signal_stop().

#include <atomic>
#include <cstdint>

#include "vc/degree_array.hpp"
#include "worklist/broker_queue.hpp"
#include "worklist/idle_termination.hpp"

namespace gvc::worklist {

/// Aggregate counters for the worklist benches. One schema covers every
/// load-balancing structure: the global worklist fills the donation fields,
/// the WorkStealing deque ensemble fills the steal fields (zero elsewhere).
struct WorklistStats {
  std::uint64_t adds = 0;
  std::uint64_t removes = 0;
  std::uint64_t donations_rejected_threshold = 0;
  std::uint64_t donations_rejected_full = 0;
  std::uint64_t max_size_seen = 0;
  std::uint64_t steals = 0;          ///< successful cross-block steals
  std::uint64_t steal_attempts = 0;  ///< locked probes of non-empty victims
};

class GlobalWorklist {
 public:
  /// kGot: an entry was removed into `out`; kDone: traversal finished or a
  /// stop was signalled (PVC cover found).
  using RemoveOutcome = Acquired;

  /// num_blocks is the grid size: the number of blocks that participate in
  /// the termination protocol. Every one of them must eventually call
  /// remove() (and keep calling it until kDone).
  GlobalWorklist(std::size_t capacity, std::size_t threshold, int num_blocks);

  std::size_t capacity() const { return queue_.capacity(); }
  std::size_t threshold() const { return threshold_; }
  std::size_t size_approx() const { return queue_.size_approx(); }

  /// Unconditional add (used to seed the root). Aborts if the queue is full
  /// — seeding happens before the kernel starts, so fullness is a bug.
  void add(vc::DegreeArray node);

  /// The donation path of Fig. 4 lines 23-26: adds only if the queue is
  /// below the threshold (and not full). Returns true if the node was
  /// donated; on false the caller pushes to its local stack instead.
  bool try_donate(vc::DegreeArray&& node);

  /// The threshold gate of try_donate() without the push: returns whether a
  /// donation issued now would pass, counting a threshold rejection exactly
  /// like try_donate() does. Hybrid consults this BEFORE paying for the
  /// donation snapshot, in both branch-state modes. Approximate under
  /// concurrency (try_donate re-checks); exact when a single block runs.
  bool poll_donate_gate() {
    if (queue_.size_approx() >= threshold_) {
      rejected_threshold_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Blocking removal implementing the retry/termination loop of §IV-C.
  RemoveOutcome remove(vc::DegreeArray& out);

  /// PVC: signal every block (including those asleep in remove()) to stop.
  void signal_stop() { idle_.signal_stop(); }
  bool stopped() const { return idle_.stopped(); }

  /// Snapshot of the counters (call after the kernel has terminated).
  WorklistStats stats() const;

 private:
  BrokerQueue<vc::DegreeArray> queue_;
  std::size_t threshold_;
  IdleTermination idle_;

  /// Raises max_size_ to the queue's current size (CAS max); every push
  /// calls it.
  void note_size();

  std::atomic<std::uint64_t> adds_{0};
  std::atomic<std::uint64_t> removes_{0};
  std::atomic<std::uint64_t> rejected_threshold_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> max_size_{0};
};

}  // namespace gvc::worklist

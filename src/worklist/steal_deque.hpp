#pragma once

// Per-block work-stealing deque, the substrate of the WorkStealing study
// baseline (see parallel/work_stealing.hpp). The owner block treats it as a
// stack — push/pop at the bottom, preserving the depth-first order Fig. 4
// relies on — while idle blocks steal from the top, where the shallowest
// (and therefore statistically largest) sub-trees sit. That is the classic
// steal-the-oldest policy of work-stealing schedulers.
//
// The implementation is a lock-free Chase–Lev deque (Chase & Lev, SPAA 2005)
// in the C11/C++11 memory-ordering formulation of Lê, Pop, Cohen & Zappa
// Nardelli (PPoPP 2013): `top_` and `bottom_` are atomic counters over a
// circular array, the owner's push_bottom/try_pop_bottom are wait-free
// (plain loads/stores plus one fence), and a compare-and-swap on `top_` is
// paid only by thieves — and by the owner in the one-element case, where
// both ends race for the same entry. This mirrors the per-block deques in
// global memory a GPU port would use (§IV-A's discussion of work stealing).
//
// Payload indirection: a search-tree node is an O(|V|) DegreeArray, far too
// big to copy inside the steal race (a thief must read the entry BEFORE its
// CAS, while the owner may still be writing a later generation of the same
// ring slot). The ring therefore holds 32-bit indices into a pre-allocated
// DegreeArray pool: the owner moves the payload into a free pool slot, then
// publishes the index; ownership of the slot transfers atomically with the
// CAS (or the owner's fenced bottom decrement), and only the unique consumer
// touches the payload. Slot recycling is two-tier so the owner path stays
// free of atomic read-modify-writes: the owner recycles through a private
// stack, thieves release through a shared Treiber stack, and the owner
// batch-claims the whole shared list with one exchange only when its
// private stack runs dry. The shared stack is multi-producer /
// single-consumer (only the owner claims), which makes the claim ABA-free.
//
// Like the copy-mode local stack (vc/descent.hpp), storage is bounded at
// construction: the owner can
// hold at most one node per tree level, so `capacity` = the depth bound of
// §IV-E, and steals only ever shrink the deque. Overflow is a hard error.
// The pool carries `steal_headroom` extra slots beyond `capacity` for
// entries a consumer has claimed but not yet moved out: pass the number of
// threads that may touch the deque concurrently (the WorkStealing solver
// passes its grid size); undersizing it aborts rather than corrupts.
//
// Lifetime counters (pushes/pops/steals_suffered/high_water) are relaxed
// atomics, safely readable from any thread at any time — mid-run stats
// reporting sees monotone, possibly slightly stale values. high_water() is
// exact when quiescent but may transiently overcount under concurrent
// steals (the owner sizes against a stale `top_`).

#include <atomic>
#include <cstdint>
#include <vector>

#include "vc/degree_array.hpp"

namespace gvc::worklist {

class StealDeque {
 public:
  /// num_vertices sizes each pool entry; capacity is the depth bound;
  /// steal_headroom bounds the number of concurrent consumers (see the
  /// header comment — the default covers the test rigs and small grids).
  StealDeque(graph::Vertex num_vertices, int capacity, int steal_headroom = 8);

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  int capacity() const { return capacity_; }

  /// Entries currently held. Immediately stale under concurrency (and may
  /// transiently overcount while an owner pop is in flight); used by
  /// thieves to skip obviously empty victims cheaply.
  int size_approx() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<int>(b - t) : 0;
  }
  bool empty_approx() const { return size_approx() == 0; }

  /// Owner: push a node at the bottom (deepest end). Wait-free. Aborts on
  /// overflow — the §IV-E depth bound guarantees correct callers never
  /// overflow. The rvalue overload moves into the pool slot instead of
  /// copying.
  void push_bottom(const vc::DegreeArray& node);
  void push_bottom(vc::DegreeArray&& node);

  /// Owner: pop the most recently pushed node (depth-first order).
  /// Wait-free; pays one CAS only when racing thieves for the last entry.
  bool try_pop_bottom(vc::DegreeArray& out);

  /// Thief: steal the oldest (shallowest) node from the top. Lock-free; one
  /// CAS on `top_` claims the entry, losing a race returns false.
  bool try_steal_top(vc::DegreeArray& out);

  /// Deepest the deque has ever been (see the header note on transient
  /// overcounting under concurrent steals).
  int high_water() const { return high_water_.load(std::memory_order_relaxed); }

  /// Lifetime counters; relaxed atomics, safely readable anytime.
  std::uint64_t pushes() const {
    return pushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t pops() const { return pops_.load(std::memory_order_relaxed); }
  std::uint64_t steals_suffered() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Bytes of pool storage held (for the memory budget, like the local
/// stack):
  /// (capacity + steal_headroom) slots of one degree entry per vertex.
  std::int64_t footprint_bytes() const;

 private:
  /// Owner: take a free pool slot — private stack first, one exchange to
  /// batch-claim the thief-released list when it runs dry.
  std::int32_t acquire_slot();
  /// Thief: return a drained slot through the shared Treiber stack.
  void release_slot_shared(std::int32_t slot);
  /// Shared body of the two push overloads, after the payload is in place.
  void publish_bottom(std::int64_t b, std::int32_t slot);

  template <typename Node>
  void push_bottom_impl(Node&& node);

  int capacity_ = 0;
  std::size_t mask_ = 0;  ///< ring size (power of two ≥ capacity) minus 1

  // Chase–Lev indices: entries live in [top_, bottom_). Monotone except for
  // the owner's speculative bottom decrement in try_pop_bottom; signed so
  // the transient bottom_ == top_ - 1 state is representable.
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};

  /// Ring of pool indices; a slot value is only meaningful for live entries.
  std::vector<std::atomic<std::int32_t>> ring_;

  /// Pre-allocated payload pool. local_free_ is the owner's private slot
  /// stack (never touched by thieves); shared_free_/free_next_ form the
  /// Treiber stack thieves release into.
  std::vector<vc::DegreeArray> pool_;
  std::vector<std::int32_t> local_free_;
  std::vector<std::atomic<std::int32_t>> free_next_;
  std::atomic<std::int32_t> shared_free_{-1};

  std::atomic<int> high_water_{0};
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> pops_{0};
  std::atomic<std::uint64_t> steals_{0};

  graph::Vertex num_vertices_;
};

}  // namespace gvc::worklist

#pragma once

// The depth-first descent of one block (§III-C / §IV-E): how a block
// carries search-tree state from a node to the next one it visits.
//
// Every depth-first loop — Sequential, StackOnly's sub-tree traversal,
// Hybrid's block, and the migrated-node drain — is written once against
// this class; BranchStateMode is decided here and nowhere else:
//
//   kCopy      — the paper's self-contained nodes (§IV-B). A deferred
//                neighbors child is a full degree-array copy in a slot of a
//                pre-allocated, depth-bounded LocalStack; moving on pops a
//                slot and adopts it like any standalone node.
//   kUndoTrail — one degree array per block. A deferred neighbors child is
//                a BranchFrame (a watermark on the workspace's UndoTrail plus
//                the branching vertex); moving on rolls the trail back and
//                re-applies the neighbors decision in place.
//
// Both visit the same nodes in the same order: the vmax child (G − vmax) is
// always continued in place and the neighbors child (G − N(vmax)) deferred,
// which is Fig. 1's recursion order. A neighbors child the caller gave away
// (a worklist donation, a cross-device export) is dropped instead of
// deferred. Fig. 6 activities: deferral is charged to kStackPush (and, when
// Descent builds the copy itself, to kRemoveNeighbors), the vmax child to
// kRemoveMaxVertex, and moving on to kStackPop (plus kRemoveNeighbors for the
// trail's re-apply).

#include <cstdint>
#include <vector>

#include "util/timer.hpp"
#include "vc/degree_array.hpp"
#include "vc/solve_types.hpp"
#include "vc/undo_trail.hpp"

namespace gvc::vc {

struct ReduceWorkspace;

/// Entries a block's deferred-node stack needs: every deferred node hangs
/// off a branch ancestor whose vmax decision added a vertex to S below the
/// prune bound, so the depth is at most the greedy bound (MVC) or k (PVC),
/// plus slack. Also the stack depth the §IV-E launch plan budgets for.
inline std::int64_t descent_depth_bound(Problem problem, std::int64_t k,
                                        std::int64_t greedy_size) {
  return (problem == Problem::kMvc ? greedy_size : k) + 2;
}

/// Per-block local stack of self-contained nodes (kCopy).
///
/// On the GPU this is a pre-allocated region of global memory sized for the
/// maximum possible tree depth, because dynamic allocation inside a kernel is
/// prohibitively expensive and because the sum of all stacks must fit global
/// memory. We reproduce that discipline: pushes copy into slots that keep
/// their buffers (no allocation on the hot path once warmed), and overflow
/// is a hard error rather than a reallocation.
class LocalStack {
 public:
  /// num_vertices sizes each entry; capacity is the depth bound.
  LocalStack(graph::Vertex num_vertices, std::int64_t capacity);

  bool empty() const { return top_ == 0; }
  int size() const { return static_cast<int>(top_); }
  std::int64_t capacity() const { return capacity_; }

  /// Deepest the stack has ever been; reported by the memory benches.
  int high_water() const { return static_cast<int>(high_water_); }

  /// Copies `node` into the next slot. Aborts on overflow — the depth bound
  /// argument of §IV-E guarantees this cannot happen for correct callers.
  void push(const DegreeArray& node);

  /// Copies the top into `out`; returns false when empty.
  bool try_pop(DegreeArray& out);

  /// Bytes of entry storage the depth bound reserves (the quantity the
  /// occupancy calculator budgets against global memory).
  std::int64_t footprint_bytes() const;

 private:
  /// Slots are created on first reach and never released, so a generous
  /// bound costs nothing until the descent is that deep.
  std::vector<DegreeArray> entries_;
  std::int64_t capacity_;
  std::size_t top_ = 0;
  std::size_t high_water_ = 0;
  graph::Vertex num_vertices_;
};

/// One deferred branch of the apply/undo descent: the watermark taken just
/// before the vmax child was applied, the branching vertex, and whether the
/// neighbors child still awaits exploration. neighbors_pending is false when
/// that child left the block instead.
struct BranchFrame {
  UndoTrail::Mark mark;
  graph::Vertex vmax;
  bool neighbors_pending;
};

class Descent {
 public:
  /// `depth_bound` sizes the kCopy stack (see descent_depth_bound). Trail
  /// mode takes over `ws.undo_trail` and `ws.frames` (clearing whatever an
  /// earlier descent left there), so no other descent may use them
  /// meanwhile. `acc`, when non-null, receives the Fig. 6 charges.
  Descent(const CsrGraph& g, BranchStateMode branch_state,
          std::int64_t depth_bound, ReduceWorkspace& ws,
          util::ActivityAccumulator* acc = nullptr);

  /// `da` holds a standalone node (a root, a worklist removal, a migrated
  /// node): start a new sub-tree from it and invalidate the workspace's
  /// kernel tag. Called only once the previous sub-tree is exhausted.
  void adopt(DegreeArray& da);

  /// `da` branched on `vmax`: defer the neighbors child if `neighbors_kept`
  /// (false: the caller gave it away), then apply the vmax child to `da` in
  /// place. `built_child`, when non-null, is that neighbors child already
  /// materialized (a snapshot the caller failed to donate); copy mode defers
  /// it as is instead of building it again, trail mode ignores it.
  void branch(DegreeArray& da, graph::Vertex vmax, bool neighbors_kept = true,
              const DegreeArray* built_child = nullptr);

  /// Moves `da` to the most recently deferred node; false when the sub-tree
  /// is exhausted (`da` is then unspecified until the next adopt()).
  bool next(DegreeArray& da);

 private:
  void clear_trail();

  const CsrGraph& g_;
  ReduceWorkspace& ws_;
  util::ActivityAccumulator* acc_;
  const bool trail_;
  LocalStack stack_;   ///< kCopy deferred nodes (empty in trail mode)
  DegreeArray child_;  ///< kCopy build buffer for a deferred neighbors child
};

}  // namespace gvc::vc

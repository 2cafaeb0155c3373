#pragma once

// Undo-trail branching — O(changed) backtracking for the depth-first
// solvers (BranchStateMode::kUndoTrail).
//
// The copy-on-branch design (kCopy, the paper's §IV-B representation) makes
// every search-tree node self-contained by copying the whole degree array
// into each child: O(|V|) memory traffic per node, most of it re-writing
// entries the branch never touched. PR 1 already made *reduction* cost
// O(changed) by driving the rules from the dirty log; this trail is the
// matching step for *backtracking*. A block keeps ONE degree array — the
// state of the node it is currently visiting — and records every mutation
// as a (vertex, old-degree) entry. Entering a child pushes a watermark
// (an O(1) snapshot of the counters, the maximum-degree cache, and the
// dirty-log bookkeeping); leaving it replays the entries above the watermark in
// reverse. Per-node cost falls from O(|V|) to O(vertices whose degree
// changed), which on sparse instances is a small constant.
//
// Equivalence contract: a rollback restores the array to the EXACT logical
// and tracking state it had at the watermark — degrees, |S|, |E|, the
// maximum-degree cache, and the dirty log the incremental reduction engine
// seeds from. The apply/undo traversal therefore visits the same nodes,
// makes the same branching decisions and produces the same covers as the
// copying traversal, bit for bit; the randomized differential suite
// (tests/integration/test_random_differential.cpp) enforces this across
// every solver.
//
// Sharing rule: the trail is private to the owning block's vc::Descent
// (vc/descent.hpp), the only code that watermarks and rolls it back in a
// solve. A node that leaves the block — a global-worklist donation, a
// cross-device export — must be materialized as a standalone snapshot (a
// plain DegreeArray copy, which never inherits the trail attachment; see
// DegreeArray's copy semantics).
// WorkStealing and GlobalOnly run no Descent: they publish every child they
// do not continue on, so nothing they defer is private.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "vc/degree_array.hpp"

namespace gvc::vc {

class UndoTrail {
 public:
  /// Handle to a watermark; only the innermost live watermark may be rolled
  /// back (LIFO discipline, matching the depth-first descent).
  using Mark = std::size_t;

  /// One reversible degree change: deg_[v] held `old_degree` before the
  /// mutation. Rollback replays these in reverse, so a vertex mutated twice
  /// ends at its oldest recorded value.
  struct Entry {
    graph::Vertex v;
    std::int32_t old_degree;
  };

  /// Begins a node: captures everything a rollback needs beyond the entry
  /// list — |S|, |E|, the maximum-degree cache, and the dirty-log bookkeeping
  /// (tracking flag, overflow latch, fixpoint mask, and the log contents —
  /// O(1) in the solver loops, where watermarks are taken right after a
  /// reduction left the log empty). Must not be called while a reduction
  /// has the dirty cap suspended.
  Mark watermark(const DegreeArray& da);

  /// Rolls `da` back to the state captured by `mark` and retires the
  /// watermark. `mark` must be the innermost live watermark: rolling back
  /// twice, or out of order, aborts (GVC_CHECK) — a double-undo would
  /// silently corrupt every ancestor's state. An empty undo (no mutations
  /// since the watermark) is a valid no-op.
  void rollback(Mark mark, DegreeArray& da);

  /// Records one degree change (called by DegreeArray mutations while a
  /// trail is attached).
  void record(graph::Vertex v, std::int32_t old_degree) {
    entries_.push_back({v, old_degree});
  }

  /// Discards all entries and watermarks. Descent::adopt() calls this when
  /// its block picks up a standalone node (a root, a worklist removal, a
  /// migrated node) — the incoming node replaces the array's value
  /// wholesale, so nothing recorded for the old value is meaningful.
  void reset();

  /// Live entries (across all open watermarks).
  std::size_t num_entries() const { return entries_.size(); }

  /// Open watermarks — the depth of the apply/undo descent.
  std::size_t depth() const { return marks_.size(); }

  /// High-water mark of num_entries(): the trail's peak memory in entries.
  /// This is the kUndoTrail analogue of kCopy's (stack depth × |V|) state
  /// footprint, reported by bench/ablation_branch_state. The live extent
  /// counts too, so a search truncated mid-descent (limit, PVC early exit)
  /// reports its real peak, not just what rollbacks already retired.
  std::size_t peak_entries() const {
    return std::max(peak_entries_, entries_.size());
  }

  /// Lifetime counters for the per-node-bytes metric: entries recorded and
  /// watermarks pushed since construction (reset() folds, not clears). Live
  /// entries are included, on the same truncated-search grounds as
  /// peak_entries().
  std::uint64_t lifetime_entries() const {
    return lifetime_entries_ + entries_.size();
  }
  std::uint64_t lifetime_watermarks() const { return lifetime_watermarks_; }

  static constexpr std::size_t kEntryBytes = sizeof(Entry);

 private:
  struct Watermark {
    std::size_t trail_size;        ///< entries_ length at capture
    std::size_t saved_dirty_size;  ///< saved_dirty_ length BEFORE capture
    std::int32_t solution_size;
    std::int64_t num_edges;
    std::int32_t max_bound;
    graph::Vertex max_hint;
    std::size_t dirty_cap;
    std::uint8_t fixpoint_mask;
    bool tracking;
    bool dirty_overflow;
  };

  std::vector<Entry> entries_;
  std::vector<Watermark> marks_;
  /// Concatenated dirty-log snapshots, one slice per live watermark (LIFO,
  /// like marks_). Solver watermarks are taken when the log is empty, so
  /// this pool normally never grows.
  std::vector<graph::Vertex> saved_dirty_;

  std::size_t peak_entries_ = 0;
  std::uint64_t lifetime_entries_ = 0;
  std::uint64_t lifetime_watermarks_ = 0;
};

}  // namespace gvc::vc

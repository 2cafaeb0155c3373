#pragma once

// The three reduction rules of §II-B / §IV-D, in three semantic variants:
//
//  * kSerial        — the textbook rules of Fig. 1: find one applicable
//                     vertex, apply, repeat. The paper-faithful Sequential
//                     baseline.
//  * kParallelSweep — the GPU semantics of §IV-D: every rule is applied as
//                     a sweep over a degree snapshot, with all applicable
//                     vertices handled "simultaneously" and the paper's
//                     smaller-vertex-ID tie-breaks resolving conflicts
//                     (adjacent degree-one pairs; shared triangles). A CUDA
//                     block executing the rule with one thread per vertex
//                     produces the same state transitions.
//  * kIncremental   — the candidate-driven fast path (not in the paper):
//                     rules pop vertices from worklists seeded once from the
//                     node's initial state and thereafter fed only by the
//                     degree-array dirty log, so per-node rule work is
//                     O(vertices whose degree changed) instead of
//                     O(|V| · rounds). Candidates are processed in the same
//                     ascending-id pass order as kSerial, which makes the
//                     variant produce BIT-IDENTICAL covers and removal
//                     counts to kSerial — differential tests rely on this.
//                     The high-degree rule is gated by the degree array's
//                     O(1) maximum-degree bound and falls back to the serial
//                     pass only when it can actually fire.
//
// All variants preserve at least one optimal solution in the subtree
// (soundness is property-tested against the brute-force oracle). The
// high-degree sweep is sound because the budget tightens by exactly the
// number of vertices removed while any vertex's degree drops by at most
// that number, so snapshot-qualifying vertices still qualify at removal.
//
// Incremental-equivalence argument (why kIncremental == kSerial): kSerial
// applies each rule as repeated ascending-id scans until a full scan changes
// nothing. A vertex's qualification for the degree-one and degree-two rules
// changes only when its own degree changes, so after a rule reaches fixpoint
// the only vertices that can qualify again are those whose degree dropped
// since — exactly the dirty log. Within a pass, an application at position v
// makes the change visible to later positions of the same scan; the engine
// reproduces this by routing freshly dirtied vertices with id > v into the
// current pass (a min-id heap) and the rest into the next pass. Search-tree
// children inherit the parent's fixpoint plus the branch mutations, whose
// dirtied vertices travel inside the copied degree array — so a child's
// reduction seeds from O(changed) candidates, not a fresh |V| scan.
//
// There is one incremental engine, and every caller runs it: the solvers,
// greedy_mvc, the tree-shape replay and the standalone rule calls below.
// Beyond the per-rule worklists it saves work three ways, none of which
// changes a state transition:
//
//   * whole-call dead fast path — when every enabled candidate rule is at
//     its lineage fixpoint with no dirty-log entry at its trigger degree
//     and the O(1) budget gate proves the high-degree rule cannot fire, the
//     call returns without seeding a worklist;
//   * fused seeding — the first reduction of a lineage collects the
//     degree-1 and degree-2 seed lists in ONE linear scan instead of two;
//   * empty-log skip — within a call, a rule at its fixpoint whose share of
//     the log is drained is not re-run (its worklist would seed empty).
//
// The enabled RuleSet is read at run time; the differential suites check
// every subset against kSerial.

#include <cstdint>
#include <limits>
#include <vector>

#include "util/timer.hpp"
#include "vc/degree_array.hpp"
#include "vc/descent.hpp"

namespace gvc::vc {

/// How the high-degree rule's threshold is derived from |S|.
/// MVC removes v when d(v) > best - |S| - 1; PVC when d(v) > k - |S|;
/// the greedy preprocessing runs with the rule disabled (infinite budget).
class BudgetPolicy {
 public:
  static BudgetPolicy mvc(std::int64_t best) { return BudgetPolicy(best, -1); }
  static BudgetPolicy pvc(std::int64_t k) { return BudgetPolicy(k, 0); }
  static BudgetPolicy none() {
    return BudgetPolicy(std::numeric_limits<std::int64_t>::max(), 0);
  }

  /// Maximum degree a vertex may keep; vertices exceeding it are moved to S.
  /// May be negative, in which case the caller's node is already prunable
  /// and the rule is skipped.
  std::int64_t budget(std::int32_t solution_size) const {
    if (bound_ == std::numeric_limits<std::int64_t>::max()) return bound_;
    return bound_ - solution_size + offset_;
  }

 private:
  BudgetPolicy(std::int64_t bound, std::int64_t offset)
      : bound_(bound), offset_(offset) {}
  std::int64_t bound_;
  std::int64_t offset_;  // -1 for MVC, 0 for PVC
};

enum class ReduceSemantics { kSerial, kParallelSweep, kIncremental };

/// Reusable per-thread scratch space for reduce(). Solvers allocate one per
/// thread block and pass it to every reduce() call so the hot path performs
/// no heap allocation once the buffers are warm:
///   * `snapshot` replaces the per-sweep copy of the whole degree array that
///     kParallelSweep used to allocate fresh each sweep;
///   * `heap` / `next` / `pending` are the incremental engine's current-pass
///     min-id heap, next-pass candidate list, and per-vertex
///     already-enqueued stamps.
/// Passing nullptr everywhere still works (a function-local workspace is
/// used), it just re-pays the allocations.
struct ReduceWorkspace {
  std::vector<std::int32_t> snapshot;
  std::vector<Vertex> heap;
  std::vector<Vertex> next;
  /// Per-vertex already-enqueued stamps; every stamp is cleared again by the
  /// time a rule run returns, so the buffer is all-zero between runs.
  std::vector<std::uint8_t> pending;
  /// The fused seed lists of an incremental reduction's first round.
  std::vector<Vertex> seed1;
  std::vector<Vertex> seed2;

  /// Apply/undo branching scratch (BranchStateMode::kUndoTrail): the
  /// mutation trail and the deferred-branch frame stack a trail-mode
  /// vc::Descent drives. Living here means every depth-first loop that
  /// already carries a per-block ReduceWorkspace — Sequential, StackOnly,
  /// Hybrid, the migrated-node drain — keeps one warm buffer across tree
  /// nodes and across jobs. One Descent at a time per workspace.
  UndoTrail undo_trail;
  std::vector<BranchFrame> frames;
};

/// Counters for analysis benches (how much work each rule does).
struct ReduceStats {
  std::int64_t degree_one_removed = 0;
  std::int64_t degree_two_removed = 0;
  std::int64_t high_degree_removed = 0;
  int rounds = 0;

  std::int64_t total_removed() const {
    return degree_one_removed + degree_two_removed + high_degree_removed;
  }
  void merge(const ReduceStats& o);
};

/// Which rules to run; the ablation bench switches these off selectively.
struct RuleSet {
  bool degree_one = true;
  bool degree_two_triangle = true;
  bool high_degree = true;
};

/// Applies the enabled rules to (g, da) until a full round changes nothing
/// (the do-while of Fig. 1 lines 14-30). If `acc` is non-null, time spent in
/// each rule is charged to the matching Fig. 6 activity. If `ws` is non-null
/// its buffers are reused instead of allocating scratch per call.
///
/// kIncremental contract: the first kIncremental reduction of a node lineage
/// enables dirty tracking on `da` and seeds the rule worklists with one full
/// scan; it leaves tracking on with an empty log, so the branch mutations
/// the caller performs next accumulate the (small) candidate seed for the
/// children's reductions. Callers need not do anything special — the state
/// travels inside the DegreeArray copies.
ReduceStats reduce(const CsrGraph& g, DegreeArray& da,
                   const BudgetPolicy& policy, ReduceSemantics semantics,
                   const RuleSet& rules = {},
                   util::ActivityAccumulator* acc = nullptr,
                   ReduceWorkspace* ws = nullptr);

/// An engine has picked up a standalone node (a root, a worklist removal, a
/// steal, a local-stack pop): emits the "adopt" trace instant with the
/// node's live edge count.
void adopt_node(const DegreeArray& da);

// Individual rules, each applied to its own fixpoint; exposed for unit
// testing. Each returns the number of vertices moved into S. Under
// kIncremental a standalone call seeds from every present vertex (there is
// no prior fixpoint to lean on) and restores the array's tracking state.

std::int64_t apply_degree_one(const CsrGraph& g, DegreeArray& da,
                              ReduceSemantics semantics,
                              ReduceWorkspace* ws = nullptr);
std::int64_t apply_degree_two_triangle(const CsrGraph& g, DegreeArray& da,
                                       ReduceSemantics semantics,
                                       ReduceWorkspace* ws = nullptr);
std::int64_t apply_high_degree(const CsrGraph& g, DegreeArray& da,
                               const BudgetPolicy& policy,
                               ReduceSemantics semantics,
                               ReduceWorkspace* ws = nullptr);

}  // namespace gvc::vc

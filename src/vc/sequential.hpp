#pragma once

// The Sequential solver of Fig. 1 — the single-CPU-thread baseline of §V-A.
// Implemented with an explicit depth-first stack (equivalent to the paper's
// recursion, but immune to host stack limits on deep instances).

#include "vc/branching.hpp"
#include "vc/reductions.hpp"
#include "vc/solve_types.hpp"

namespace gvc::vc {

struct SequentialConfig {
  Problem problem = Problem::kMvc;
  int k = 0;  ///< PVC bound; ignored for MVC

  /// Rule application semantics. kIncremental (the default) is the
  /// candidate-driven fast path and produces exactly the covers kSerial
  /// does; kSerial matches Fig. 1 verbatim and is what the paper-faithful
  /// reproduction benches request; kParallelSweep is available so tests can
  /// check that every semantics reaches the same optimum.
  ReduceSemantics semantics = ReduceSemantics::kIncremental;

  /// Rule toggles for the reduction ablation bench.
  RuleSet rules = {};

  /// Branching-vertex selection; kMaxDegree is the paper's rule. Any
  /// strategy is exact — this is the ablation axis of
  /// bench/ablation_branching.
  BranchStrategy branch = BranchStrategy::kMaxDegree;
  std::uint64_t branch_seed = 0;  ///< used by BranchStrategy::kRandom

  /// How child states are carried across a branch. kUndoTrail (the default)
  /// is the apply/undo fast path — O(changed) per node instead of O(|V|) —
  /// and produces exactly the tree kCopy does; kCopy is the paper's
  /// copy-on-branch design, which the paper-faithful harness requests.
  BranchStateMode branch_state = BranchStateMode::kUndoTrail;
};

/// Runs branch-and-reduce to completion (or until `control` stops it — its
/// node/time budgets, absolute deadline, or a cancel()). For MVC the result
/// carries the proven-optimal cover (Outcome::kOptimal) or, when
/// interrupted, the best cover seen; for PVC it reports whether a cover of
/// size ≤ k exists and, if so, one such cover. See Outcome for the full
/// status taxonomy. `control == nullptr` runs unlimited and uncancellable,
/// bit-identically to a control that never fires.
///
/// Re-entrant: all state is local to the call. If `workspace` is non-null
/// its buffers are reused instead of allocating fresh scratch — callers
/// solving many instances on one thread (service workers) pass the same
/// workspace to every call.
SolveResult solve_sequential(const CsrGraph& g, const SequentialConfig& config,
                             SolveControl* control = nullptr,
                             ReduceWorkspace* workspace = nullptr);

}  // namespace gvc::vc

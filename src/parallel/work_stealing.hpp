#pragma once

// WorkStealing study baseline: the classic alternative to the paper's
// bounded global worklist. Every block owns a steal deque (see
// worklist/steal_deque.hpp); it traverses depth-first through the bottom of
// its own deque exactly like Hybrid traverses its local stack, but instead
// of donating branches to a shared queue, idle blocks steal the shallowest
// entry from a victim's deque, scanning victims round-robin from their own
// id.
//
// Every branch publishes its neighbors child on the owner's deque, in both
// branch-state modes: config.branch_state is ignored, as in GlobalOnly. A
// depth-first trail that kept deferred children private would let thieves
// see only what the owner chose to snapshot, and steals would shrink to
// ever-deeper slivers of the tree.
//
// Contrasts the benches draw against Hybrid:
//  * Hybrid pays the broker queue's contention on every branch (the
//    threshold check) but donation is push-based, so work spreads ahead of
//    demand; stealing is pull-based and only moves work once a block has
//    already gone idle.
//  * Steals take the shallowest node, which is the same
//    biggest-subtree-first heuristic the worklist achieves implicitly.
//  * Termination is the all-idle protocol GlobalWorklist runs
//    (worklist::IdleTermination), with one scan of every deque as the
//    attempt.
//
// On the GPU this maps to per-block Chase–Lev deques in global memory; the
// paper's worklist wins on implementation simplicity and on its §IV-E
// memory argument (one bounded queue vs. N full-depth deques).

#include "graph/csr.hpp"
#include "parallel/config.hpp"
#include "parallel/steal_env.hpp"

namespace gvc::parallel {

/// `env` (optional): cross-device stealing — the neighbors child a branch
/// would push on the own deque is exported to env->broker instead while a
/// remote device is starved, and every migrated node is settled before the shared
/// search is harvested. Null env: exact single-device behavior.
ParallelResult solve_work_stealing(const graph::CsrGraph& g,
                                   const ParallelConfig& config,
                                   vc::SolveControl* control = nullptr,
                                   SolveWorkspace* workspace = nullptr,
                                   const StealEnv* env = nullptr);

}  // namespace gvc::parallel

#pragma once

// Minimum Weight Vertex Cover (MWVC) — the weighted generalization behind
// several lines of work the paper cites (e.g. the hybridized tabu search of
// Voß et al. [13] targets minimum weight vertex cover). Provided as a
// library extension: an exact branch-and-bound solver over the same
// degree-array machinery, the Bar-Yehuda–Even local-ratio 2-approximation,
// a weighted greedy, and a subset-enumeration oracle for tests.
//
// Weights are positive integers (std::int64_t): exact arithmetic, no
// floating-point tie hazards.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "vc/solve_types.hpp"

namespace gvc::vc {

using Weight = std::int64_t;

/// Validates weights: one per vertex, all > 0. Aborts on violation.
void check_weights(const graph::CsrGraph& g, const std::vector<Weight>& w);

/// Total weight of a vertex set.
Weight weight_of(const std::vector<Weight>& w,
                 const std::vector<graph::Vertex>& vertices);

/// Bar-Yehuda–Even local-ratio algorithm: a cover of weight ≤ 2·OPT in
/// O(|E|) — also yields the pricing lower bound used by the exact solver.
std::vector<graph::Vertex> weighted_two_approx(const graph::CsrGraph& g,
                                               const std::vector<Weight>& w);

/// Lower bound on the optimum from the local-ratio pricing: the total
/// amount "paid" onto edges, which no cover can avoid.
Weight weighted_lower_bound(const graph::CsrGraph& g,
                            const std::vector<Weight>& w);

/// Weighted greedy: repeatedly take the vertex with maximum
/// (covered edges) / weight ratio until edgeless. No approximation
/// guarantee, but a strong upper-bound seed in practice.
std::vector<graph::Vertex> weighted_greedy(const graph::CsrGraph& g,
                                           const std::vector<Weight>& w);

struct WeightedResult {
  /// kOptimal: proven-minimum weight. Limit outcomes: the incumbent is a
  /// valid cover (heuristics seed it), just not proven minimum.
  Outcome outcome = Outcome::kOptimal;
  Weight best_weight = 0;
  std::vector<graph::Vertex> cover;
  std::uint64_t tree_nodes = 0;
  double seconds = 0.0;

  bool complete() const { return is_complete(outcome); }
  bool limit_hit() const { return is_limit(outcome); }
};

/// Exact MWVC by branch-and-bound: branch on a maximum-degree vertex (take it,
/// or take its whole neighborhood), prune with accumulated weight +
/// local-ratio pricing bound against the incumbent, and apply the weighted
/// degree-one rule (take the neighbor when it is no heavier). `control`
/// carries the budgets and the cancel/deadline latch, like every other
/// solve path.
WeightedResult solve_weighted(const graph::CsrGraph& g,
                              const std::vector<Weight>& w,
                              SolveControl* control = nullptr);

/// Exhaustive oracle for tests; requires |V| ≤ 24.
Weight weighted_oracle(const graph::CsrGraph& g, const std::vector<Weight>& w);

}  // namespace gvc::vc

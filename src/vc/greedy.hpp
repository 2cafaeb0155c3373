#pragma once

// Greedy approximations (§II-B): the maximum-degree greedy cover used to seed
// `best` and bound the local-stack depth, plus a maximal-matching
// 2-approximation used by tests as an independent upper bound.

#include <utility>
#include <vector>

#include "vc/degree_array.hpp"
#include "vc/reductions.hpp"

namespace gvc::vc {

struct GreedyResult {
  int size = 0;
  std::vector<Vertex> cover;
};

/// The paper's greedy MVC approximation: apply all reduction rules (with the
/// high-degree rule inert, since no upper bound exists yet), remove a
/// maximum-degree vertex (smallest id on ties) into the solution, repeat
/// until the graph is edgeless. O((|V| + |E|) log |V|): picks come from a
/// lazy max-heap, not a rescan per pick.
GreedyResult greedy_mvc(const CsrGraph& g);

/// Greedy maximal matching (in vertex order).
std::vector<std::pair<Vertex, Vertex>> maximal_matching(const CsrGraph& g);

/// Size of a maximal matching — a lower bound on the MVC size.
int matching_lower_bound(const CsrGraph& g);

/// Both endpoints of a maximal matching — a cover of size ≤ 2·OPT.
std::vector<Vertex> two_approx_cover(const CsrGraph& g);

}  // namespace gvc::vc

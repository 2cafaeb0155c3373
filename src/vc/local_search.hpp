#pragma once

// Local-search improvement of vertex covers — the "heuristics" line of work
// the paper cites [12, 13]. Not used by the exact solvers (the paper seeds
// `best` with the simpler maximum-degree greedy, and we keep that faithful),
// but exposed as library API: a tighter initial upper bound shrinks both
// the search tree and the §IV-E stack-depth provisioning, which is the
// natural first extension a downstream user reaches for.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace gvc::vc {

struct LocalSearchOptions {
  /// Improvement attempts without progress before giving up.
  int max_stall_rounds = 50;
  std::uint64_t seed = 1;
};

/// Improves a valid cover in place:
///  1. prune redundant vertices (all of whose neighbors are covered), then
///  2. (1,2)-style perturbation: drop a random cover vertex, repair the
///     cover greedily, keep the result if it is no larger (accepting equals
///     walks plateaus).
/// Returns a valid cover no larger than the input. Deterministic per seed.
std::vector<graph::Vertex> improve_cover(const graph::CsrGraph& g,
                                         std::vector<graph::Vertex> cover,
                                         const LocalSearchOptions& options = {});

/// Greedy cover (maximum-degree, reduction-free) followed by improve_cover —
/// a stronger upper bound than greedy alone.
std::vector<graph::Vertex> local_search_cover(const graph::CsrGraph& g,
                                              const LocalSearchOptions& options = {});

}  // namespace gvc::vc

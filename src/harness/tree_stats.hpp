#pragma once

// Search-tree shape analysis — the quantitative backing for §III-B and
// Fig. 3's narrative.
//
// The paper argues that fixed-depth sub-tree distribution (StackOnly, prior
// work [14, 15]) load-imbalances because sub-trees rooted at the same depth
// have "dramatically different sizes". This module measures exactly that:
// it traverses the sequential search tree once and records, for every depth
// up to `record_max_depth`, the size of each sub-tree rooted there — i.e.
// the work each thread block would receive if the tree were split at that
// starting depth. The imbalance summaries (max/mean, coefficient of
// variation, Gini, top-share) are what bench/tree_shape_report prints;
// bench/ablation_load_balancer and examples/compare_methods read them too.
//
// The traversal replays the Sequential solver exactly (same reduction
// semantics, same branch order, same best updates), so total node counts
// agree with solve_sequential — property-tested in tests/harness. It is the
// library's only replay of that traversal.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "vc/sequential.hpp"

namespace gvc::harness {

struct TreeShapeOptions {
  vc::SequentialConfig solver;  ///< problem/k/rules/branch, as in Fig. 1

  /// Traversal budget (SequentialConfig no longer carries limits — solves
  /// take a vc::SolveControl; the analyzer only needs the plain budgets).
  vc::Limits limits;

  /// Record sub-tree sizes for roots at depths 0..record_max_depth. The
  /// paper's StackOnly depths of interest are 8/12/16 (scaled: 4-10).
  int record_max_depth = 12;
};

/// Sub-tree size statistics for one candidate starting depth.
struct DepthSlice {
  int depth = 0;

  /// Size (node count) of each *reached* sub-tree rooted at this depth, in
  /// traversal order. Tree leaves above this depth simply contribute no
  /// slot — the paper's "TB7 does not even have a sub-tree" case.
  std::vector<std::uint64_t> subtree_sizes;

  /// 2^depth minus the reached roots: blocks that would idle from the start.
  std::uint64_t empty_slots = 0;

  // Imbalance summaries over subtree_sizes (0 when empty).
  double max_over_mean = 0.0;  ///< the paper reports 63.98x for StackOnly
  double cv = 0.0;             ///< coefficient of variation
  double gini = 0.0;           ///< 0 = perfectly even, →1 = one block owns all
  double top_share = 0.0;      ///< fraction of all nodes in the biggest sub-tree
};

struct TreeShape {
  std::uint64_t total_nodes = 0;
  int max_depth_reached = 0;
  int best_size = -1;           ///< MVC optimum (or PVC cover size / -1)
  bool timed_out = false;

  /// Node count per depth (index = depth).
  std::vector<std::uint64_t> nodes_per_depth;

  /// One slice per recorded depth, 0..record_max_depth.
  std::vector<DepthSlice> slices;
};

/// Gini coefficient of a non-negative sample (0 for empty/all-zero input).
/// Exposed for tests; also useful to summarize Fig. 5 load vectors.
double gini_coefficient(std::vector<double> xs);

/// Traverses the search tree of (g, options.solver) and returns its shape.
TreeShape analyze_tree_shape(const graph::CsrGraph& g,
                             const TreeShapeOptions& options = {});

}  // namespace gvc::harness

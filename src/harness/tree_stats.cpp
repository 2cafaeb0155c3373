#include "harness/tree_stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"
#include "util/stats.hpp"
#include "vc/greedy.hpp"
#include "vc/search.hpp"

namespace gvc::harness {

namespace {

using graph::CsrGraph;
using graph::Vertex;

/// One traversal replaying the Sequential solver's visit order: a node is
/// visited by the shared search (vc::BlockSearch — reduce, prune, cover
/// harvest, branch vertex, node budget), then the vmax child is explored
/// before the neighbors child — the recursion of Fig. 1, which
/// solve_sequential's Descent realizes. The recursion stays because each
/// node's sub-tree size is what the depth slices record.
class ShapeTraversal {
 public:
  ShapeTraversal(const CsrGraph& g, const TreeShapeOptions& options,
                 TreeShape& shape)
      : g_(g),
        opt_(options),
        shape_(shape),
        control_(options.limits),
        shared_(start_search(g, options, &control_)),
        search_(g, options.solver, shared_, ws_) {
    shape_.slices.resize(
        static_cast<std::size_t>(opt_.record_max_depth) + 1);
    for (int d = 0; d <= opt_.record_max_depth; ++d)
      shape_.slices[static_cast<std::size_t>(d)].depth = d;
  }

  void run() {
    visit(vc::DegreeArray(g_), 0);
    shape_.total_nodes = search_.visited();
    shape_.best_size = shared_.harvest().best_size;
    shape_.timed_out = shared_.aborted();
    finalize_slices();
  }

 private:
  static vc::SharedSearch start_search(const CsrGraph& g,
                                       const TreeShapeOptions& options,
                                       vc::SolveControl* control) {
    vc::GreedyResult greedy = vc::greedy_mvc(g);
    return vc::SharedSearch(options.solver.problem, options.solver.k,
                            greedy.size, std::move(greedy.cover), control);
  }

  std::uint64_t visit(vc::DegreeArray da, int depth) {
    if (shared_.pvc_found()) return 0;
    Vertex vmax = -1;
    const vc::NodeOutcome out = search_.visit(da, vmax);
    if (out == vc::NodeOutcome::kAbort) return 0;

    if (static_cast<std::size_t>(depth) >= shape_.nodes_per_depth.size())
      shape_.nodes_per_depth.resize(static_cast<std::size_t>(depth) + 1, 0);
    ++shape_.nodes_per_depth[static_cast<std::size_t>(depth)];
    shape_.max_depth_reached = std::max(shape_.max_depth_reached, depth);

    std::uint64_t size = 1;
    if (out == vc::NodeOutcome::kBranch) {
      vc::DegreeArray neighbors_child = da;
      neighbors_child.remove_neighbors_into_solution(g_, vmax);
      da.remove_into_solution(g_, vmax);
      size += visit(std::move(da), depth + 1);
      size += visit(std::move(neighbors_child), depth + 1);
    }

    if (depth <= opt_.record_max_depth)
      shape_.slices[static_cast<std::size_t>(depth)].subtree_sizes.push_back(
          size);
    return size;
  }

  void finalize_slices() {
    for (DepthSlice& slice : shape_.slices) {
      const auto reached =
          static_cast<std::uint64_t>(slice.subtree_sizes.size());
      const std::uint64_t slots =
          slice.depth < 63 ? (std::uint64_t{1} << slice.depth) : 0;
      slice.empty_slots = slots > reached ? slots - reached : 0;
      if (reached == 0) continue;
      std::vector<double> xs(slice.subtree_sizes.begin(),
                             slice.subtree_sizes.end());
      const double total = [&] {
        double t = 0;
        for (double x : xs) t += x;
        return t;
      }();
      slice.max_over_mean =
          total > 0 ? util::max_of(xs) / (total / static_cast<double>(reached))
                    : 0.0;
      slice.cv = util::coeff_of_variation(xs);
      slice.gini = gini_coefficient(xs);
      slice.top_share = total > 0 ? util::max_of(xs) / total : 0.0;
    }
  }

  const CsrGraph& g_;
  const TreeShapeOptions& opt_;
  TreeShape& shape_;

  vc::SolveControl control_;
  vc::SharedSearch shared_;
  vc::ReduceWorkspace ws_;
  vc::BlockSearch search_;
};

}  // namespace

double gini_coefficient(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double total = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    GVC_DCHECK(xs[i] >= 0.0);
    total += xs[i];
    weighted += static_cast<double>(i + 1) * xs[i];
  }
  if (total <= 0.0) return 0.0;
  const auto n = static_cast<double>(xs.size());
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

TreeShape analyze_tree_shape(const graph::CsrGraph& g,
                             const TreeShapeOptions& options) {
  TreeShape shape;
  ShapeTraversal traversal(g, options, shape);
  traversal.run();
  return shape;
}

}  // namespace gvc::harness

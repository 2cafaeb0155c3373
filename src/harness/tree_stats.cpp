#include "harness/tree_stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "vc/branching.hpp"
#include "vc/greedy.hpp"
#include "vc/reductions.hpp"

namespace gvc::harness {

namespace {

using graph::CsrGraph;
using graph::Vertex;

/// One traversal replaying the Sequential solver's visit order: a node is
/// processed (reduce → prune → cover-check), then the vmax child is
/// explored before the neighbors child — the recursion of Fig. 1, which is
/// what sequential.cpp's LIFO stack realizes.
class ShapeTraversal {
 public:
  ShapeTraversal(const CsrGraph& g, const TreeShapeOptions& options,
                 TreeShape& shape)
      : g_(g), opt_(options), shape_(shape) {
    mvc_ = opt_.solver.problem == vc::Problem::kMvc;
    k_ = opt_.solver.k;
    GVC_CHECK_MSG(mvc_ || k_ > 0, "PVC requires k > 0");
    vc::GreedyResult greedy = vc::greedy_mvc(g);
    best_ = greedy.size;
    best_size_ = mvc_ ? greedy.size : -1;
    shape_.slices.resize(
        static_cast<std::size_t>(opt_.record_max_depth) + 1);
    for (int d = 0; d <= opt_.record_max_depth; ++d)
      shape_.slices[static_cast<std::size_t>(d)].depth = d;
  }

  void run() {
    visit(vc::DegreeArray(g_), 0);
    shape_.total_nodes = nodes_;
    shape_.best_size = best_size_;
    shape_.timed_out = timed_out_;
    finalize_slices();
  }

 private:
  std::uint64_t visit(vc::DegreeArray da, int depth) {
    if (timed_out_ || pvc_found_) return 0;
    if ((opt_.limits.max_tree_nodes != 0 &&
         nodes_ >= opt_.limits.max_tree_nodes) ||
        (opt_.limits.time_limit_s != 0.0 &&
         timer_.seconds() > opt_.limits.time_limit_s)) {
      timed_out_ = true;
      return 0;
    }

    ++nodes_;
    if (static_cast<std::size_t>(depth) >= shape_.nodes_per_depth.size())
      shape_.nodes_per_depth.resize(static_cast<std::size_t>(depth) + 1, 0);
    ++shape_.nodes_per_depth[static_cast<std::size_t>(depth)];
    shape_.max_depth_reached = std::max(shape_.max_depth_reached, depth);

    std::uint64_t size = 1;

    const vc::BudgetPolicy policy =
        mvc_ ? vc::BudgetPolicy::mvc(best_) : vc::BudgetPolicy::pvc(k_);
    vc::reduce(g_, da, policy, opt_.solver.semantics, opt_.solver.rules);

    const std::int64_t s = da.solution_size();
    const std::int64_t e = da.num_edges();
    const bool pruned =
        mvc_ ? (s >= best_ || e > (best_ - s - 1) * (best_ - s - 1))
             : (s > k_ || e > (k_ - s) * (k_ - s));

    if (!pruned) {
      if (e == 0) {  // cover found
        if (mvc_) {
          best_ = s;
          best_size_ = static_cast<int>(s);
        } else {
          pvc_found_ = true;
          best_size_ = static_cast<int>(s);
        }
      } else {
        const Vertex vmax = vc::select_branch_vertex(
            da, opt_.solver.branch, opt_.solver.branch_seed);
        GVC_DCHECK(vmax >= 0);
        vc::DegreeArray neighbors_child = da;
        neighbors_child.remove_neighbors_into_solution(g_, vmax);
        da.remove_into_solution(g_, vmax);
        size += visit(std::move(da), depth + 1);
        size += visit(std::move(neighbors_child), depth + 1);
      }
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

  bool mvc_ = true;
  int k_ = 0;
  std::int64_t best_ = 0;
  int best_size_ = -1;
  bool pvc_found_ = false;
  bool timed_out_ = false;
  std::uint64_t nodes_ = 0;
  util::WallTimer timer_;
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

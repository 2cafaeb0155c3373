#include "vc/sequential.hpp"

#include "vc/branching.hpp"

#include <utility>

#include "graph/ops.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/descent.hpp"
#include "vc/greedy.hpp"

namespace gvc::vc {

const SolveResult& check_result(const CsrGraph& g, const SolveResult& r) {
  if (r.has_cover()) {
    GVC_CHECK_MSG(static_cast<int>(r.cover.size()) == r.best_size,
                  "cover size disagrees with best_size");
    GVC_CHECK_MSG(graph::is_vertex_cover(g, r.cover),
                  "reported cover does not cover all edges");
  }
  return r;
}

SolveResult solve_sequential(const CsrGraph& g, const SequentialConfig& config,
                             SolveControl* control,
                             ReduceWorkspace* workspace) {
  util::WallTimer timer;
  SolveResult result;
  const Limits limits = control ? control->limits : Limits{};

  GreedyResult greedy = greedy_mvc(g);
  result.greedy_upper_bound = greedy.size;

  const bool mvc = config.problem == Problem::kMvc;
  const std::int64_t k = config.k;
  GVC_CHECK_MSG(mvc || k > 0, "PVC requires k > 0");

  // MVC: `best` starts at the greedy bound; the tree only records strictly
  // better covers, so the greedy cover is the answer if none is found.
  std::int64_t best = greedy.size;
  std::vector<Vertex> best_cover = greedy.cover;
  bool pvc_found = false;
  std::vector<Vertex> pvc_cover;

  // One workspace for the whole search: reduce() reuses its buffers (and the
  // Descent its trail and frame stack) instead of allocating scratch per
  // tree node. A caller-provided workspace extends the reuse across
  // searches.
  ReduceWorkspace local_ws;
  ReduceWorkspace& ws = workspace ? *workspace : local_ws;

  StopCause stop = StopCause::kNone;

  // One visit of Fig. 1: stop checks, reduce, stopping condition, cover
  // harvest, branch selection. How state is carried to the next node is the
  // Descent's business (vc/descent.hpp), so both branch-state modes visit
  // the same nodes in the same order.
  enum class Visit { kStop, kPruned, kCover, kBranch };
  Vertex vmax = -1;
  auto process_node = [&](DegreeArray& da) -> Visit {
    // Stop checks, cheapest first; none of them alters the traversal, so
    // a run where nothing fires is bit-identical to a control-free run.
    if (limits.max_tree_nodes != 0 &&
        result.tree_nodes >= limits.max_tree_nodes) {
      stop = StopCause::kNodeLimit;
      return Visit::kStop;
    }
    if (limits.time_limit_s != 0.0 &&
        timer.seconds() > limits.time_limit_s) {
      stop = StopCause::kTimeLimit;
      return Visit::kStop;
    }
    if (control != nullptr) {
      // Cancel is one atomic load — check it every node for promptness.
      // The deadline needs a clock read, so it shares the same amortized
      // cadence SharedSearch uses.
      if (control->cancelled()) {
        stop = StopCause::kCancelled;
        return Visit::kStop;
      }
      if ((result.tree_nodes & 63) == 0) {
        if (control->deadline_passed()) {
          stop = StopCause::kDeadline;
          return Visit::kStop;
        }
        if (control->progress_enabled() && (result.tree_nodes & 255) == 0)
          control->publish_progress(mvc ? static_cast<int>(best) : -1,
                                    result.tree_nodes);
      }
    }
    ++result.tree_nodes;

    const BudgetPolicy policy =
        mvc ? BudgetPolicy::mvc(best) : BudgetPolicy::pvc(k);
    reduce(g, da, policy, config.semantics, config.rules, nullptr, &ws);

    const std::int64_t s = da.solution_size();
    // Stopping condition (Fig. 1 line 5; §II-B PVC variant).
    if (mvc) {
      if (s >= best || da.num_edges() > (best - s - 1) * (best - s - 1))
        return Visit::kPruned;
    } else {
      if (s > k || da.num_edges() > (k - s) * (k - s)) return Visit::kPruned;
    }

    if (da.num_edges() == 0) {  // found a cover
      if (mvc) {
        // s < best is guaranteed by the stopping condition above.
        best = s;
        best_cover = da.solution();
      } else {
        pvc_found = true;
        pvc_cover = da.solution();
      }
      return Visit::kCover;
    }

    vmax = select_branch_vertex(da, config.branch, config.branch_seed);
    GVC_DCHECK(vmax >= 0 && da.degree(vmax) >= 1);
    return Visit::kBranch;
  };

  // Fig. 1 recurses on (G − vmax) first, then (G − N(vmax)): the vmax child
  // continues in place and the neighbors child is deferred.
  Descent descent(g, config.branch_state,
                  descent_depth_bound(config.problem, k, greedy.size), ws);
  DegreeArray da(g);
  descent.adopt(da);  // root pickup
  for (;;) {
    const Visit visit = process_node(da);
    if (visit == Visit::kStop) break;
    if (visit == Visit::kBranch) {
      descent.branch(da, vmax);
      continue;
    }
    if (visit == Visit::kCover && !mvc)
      break;  // PVC ends the search at the first cover of size ≤ k
    if (!descent.next(da)) break;
  }

  result.seconds = timer.seconds();
  if (mvc) {
    result.best_size = static_cast<int>(best);
    result.cover = std::move(best_cover);
    result.outcome = stop == StopCause::kNone
                         ? Outcome::kOptimal
                         : interrupted_outcome(stop, /*have_cover=*/true);
  } else if (pvc_found) {
    // The witness decides the PVC question definitively, limit or not.
    result.best_size = static_cast<int>(pvc_cover.size());
    result.cover = std::move(pvc_cover);
    result.outcome = Outcome::kOptimal;
  } else {
    result.outcome = stop == StopCause::kNone
                         ? Outcome::kInfeasible
                         : interrupted_outcome(stop, /*have_cover=*/false);
  }
  if (control != nullptr && control->progress_enabled())
    control->publish_progress(result.best_size, result.tree_nodes);
  return result;
}

}  // namespace gvc::vc

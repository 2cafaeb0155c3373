#include "vc/search.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "vc/branching.hpp"

namespace gvc::vc {

SharedSearch::SharedSearch(Problem problem, int k, int initial_best,
                           std::vector<Vertex> initial_cover,
                           SolveControl* control)
    : problem_(problem),
      control_(control),
      limits_(control ? control->limits : Limits{}),
      best_(initial_best),
      best_cover_(std::move(initial_cover)) {
  GVC_CHECK_MSG(problem == Problem::kMvc || k > 0, "PVC requires k > 0");
  GVC_CHECK(initial_best >= 0);
  GVC_CHECK(static_cast<int>(best_cover_.size()) == initial_best);
}

bool SharedSearch::latch_stop(StopCause cause) {
  std::uint8_t expected = static_cast<std::uint8_t>(StopCause::kNone);
  stop_.compare_exchange_strong(expected, static_cast<std::uint8_t>(cause),
                                std::memory_order_acq_rel);
  return false;
}

void SharedSearch::publish_progress(std::uint64_t nodes) const {
  if (control_ != nullptr && control_->progress_enabled())
    control_->publish_progress(problem_ == Problem::kMvc ? best() : -1, nodes);
}

bool SharedSearch::offer_cover(const DegreeArray& da) {
  int size = da.solution_size();
  int cur = best_.load(std::memory_order_acquire);
  while (size < cur) {
    if (best_.compare_exchange_weak(cur, size, std::memory_order_acq_rel)) {
      std::lock_guard<std::mutex> lock(mutex_);
      // Another improver may have raced us with an even smaller cover;
      // only materialize ours if it still matches the atomic.
      if (best_.load(std::memory_order_acquire) == size)
        best_cover_ = da.solution();
      publish_progress(nodes());
      return true;
    }
  }
  return false;
}

void SharedSearch::set_pvc_found(const DegreeArray& da) {
  bool expected = false;
  if (pvc_found_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(mutex_);
    pvc_cover_ = da.solution();
  }
}

bool SharedSearch::check_clock() {
  if (limits_.time_limit_s != 0.0 && timer_.seconds() > limits_.time_limit_s)
    return latch_stop(StopCause::kTimeLimit);
  if (control_ != nullptr && control_->deadline_passed())
    return latch_stop(StopCause::kDeadline);
  return true;
}

bool SharedSearch::claim_node() {
  std::uint64_t n = nodes_.load(std::memory_order_relaxed);
  do {
    if (limits_.max_tree_nodes != 0 && n >= limits_.max_tree_nodes)
      return latch_stop(StopCause::kNodeLimit);
  } while (!nodes_.compare_exchange_weak(n, n + 1, std::memory_order_relaxed));
  if (((n + 1) & 63) == 0) publish_progress(n + 1);
  return true;
}

void SharedSearch::add_nodes(std::uint64_t count) {
  publish_progress(nodes_.fetch_add(count, std::memory_order_relaxed) + count);
}

SolveResult SharedSearch::harvest() const {
  SolveResult r;
  r.tree_nodes = nodes();
  const StopCause stop = stop_cause();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (problem_ == Problem::kMvc) {
      r.best_size = best_.load(std::memory_order_acquire);
      r.cover = best_cover_;
      r.outcome = stop == StopCause::kNone
                      ? Outcome::kOptimal
                      : interrupted_outcome(stop, /*have_cover=*/true);
    } else if (pvc_found()) {
      // A witness answers the PVC question definitively even if a limit
      // latched while other blocks were still winding down.
      r.best_size = static_cast<int>(pvc_cover_.size());
      r.cover = pvc_cover_;
      r.outcome = Outcome::kOptimal;
    } else {
      r.outcome = stop == StopCause::kNone
                      ? Outcome::kInfeasible
                      : interrupted_outcome(stop, /*have_cover=*/false);
    }
  }
  if (control_ != nullptr && control_->progress_enabled())
    control_->publish_progress(r.best_size, r.tree_nodes);
  return r;
}

NodeOutcome BlockSearch::visit(DegreeArray& da, Vertex& vmax_out) {
  if (!nodes_.register_node()) return NodeOutcome::kAbort;

  // A cover worth keeping has fewer vertices than the best known (MVC) or
  // at most k (PVC). `best` is read again after the reduction, during
  // which another block may have found a better cover.
  const bool mvc = config_.problem == Problem::kMvc;
  const auto policy = [&] {
    return mvc ? BudgetPolicy::mvc(shared_.best())
               : BudgetPolicy::pvc(config_.k);
  };
  reduce(g_, da, policy(), config_.semantics, config_.rules, activities_,
         &ws_);

  // Stopping condition (Fig. 1 line 5; §II-B PVC variant): every remaining
  // vertex has degree ≤ the budget left, so more edges than its square
  // cannot be covered within it.
  const std::int32_t s = da.solution_size();
  const std::int64_t e = da.num_edges();
  const std::int64_t left = policy().budget(s);
  if (left < 0 || e > left * left) {
    obs::trace_instant_sampled(obs::TraceCat::kBranch, "prune", "size", s);
    return NodeOutcome::kPruned;
  }

  if (e == 0) {  // cover found
    obs::trace_instant(obs::TraceCat::kBranch, "cover", "size", s);
    if (mvc)
      shared_.offer_cover(da);
    else
      shared_.set_pvc_found(da);
    return NodeOutcome::kFound;
  }

  vmax_out = util::timed(activities_, util::Activity::kFindMaxDegree, [&] {
    return select_branch_vertex(da, config_.branch, config_.branch_seed);
  });
  GVC_DCHECK(vmax_out >= 0 && da.degree(vmax_out) >= 1);
  obs::trace_instant_sampled(obs::TraceCat::kBranch, "branch", "v", vmax_out);
  return NodeOutcome::kBranch;
}

void BlockSearch::descend(Descent& descent, DegreeArray& da) {
  const bool mvc = config_.problem == Problem::kMvc;
  // Fig. 1 recurses on (G − vmax) first, then (G − N(vmax)): the vmax child
  // continues in place and the neighbors child is deferred.
  for (;;) {
    if (!mvc && shared_.pvc_found()) return;
    Vertex vmax = -1;
    const NodeOutcome out = visit(da, vmax);
    if (out == NodeOutcome::kAbort) return;
    if (out == NodeOutcome::kFound && !mvc) return;
    if (out == NodeOutcome::kBranch) {
      descent.branch(da, vmax);
      continue;
    }
    if (!descent.next(da)) return;
  }
}

void search_subtree(const CsrGraph& g, const SequentialConfig& config,
                    SharedSearch& shared, DegreeArray da,
                    ReduceWorkspace& ws) {
  Descent descent(g, config.branch_state,
                  descent_depth_bound(config.problem, config.k, shared.best()),
                  ws);
  descent.adopt(da);
  BlockSearch(g, config, shared, ws).descend(descent, da);
}

}  // namespace gvc::vc

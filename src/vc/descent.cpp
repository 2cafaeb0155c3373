#include "vc/descent.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "vc/reductions.hpp"

namespace gvc::vc {

namespace {

using util::Activity;
using util::timed;

/// The trail's backtracking step: rolls `da` back frame by frame until a
/// deferred neighbors child is found, applies it (recording through the
/// attached trail), and returns true with `da` positioned on that unexplored
/// node and the frame's watermark re-armed. Returns false when the frame
/// stack is exhausted (the sub-tree rooted at the oldest frame is complete).
bool retreat_to_next_branch(UndoTrail& trail, std::vector<BranchFrame>& frames,
                            const CsrGraph& g, DegreeArray& da,
                            util::ActivityAccumulator* acc) {
  obs::trace_instant_sampled(obs::TraceCat::kBranch, "undo", "depth",
                             static_cast<std::int64_t>(frames.size()));
  while (!frames.empty()) {
    BranchFrame& f = frames.back();
    // Undo the child sub-tree just completed (the vmax child on the first
    // visit, the neighbors child on the second).
    timed(acc, Activity::kStackPop, [&] { trail.rollback(f.mark, da); });
    if (f.neighbors_pending) {
      f.neighbors_pending = false;
      f.mark = trail.watermark(da);
      timed(acc, Activity::kRemoveNeighbors,
            [&] { da.remove_neighbors_into_solution(g, f.vmax); });
      return true;
    }
    frames.pop_back();
  }
  return false;
}

}  // namespace

LocalStack::LocalStack(graph::Vertex num_vertices, std::int64_t capacity)
    : capacity_(capacity), num_vertices_(num_vertices) {
  GVC_CHECK(capacity >= 0);
}

void LocalStack::push(const DegreeArray& node) {
  GVC_CHECK_MSG(static_cast<std::int64_t>(top_) < capacity_,
                "local stack overflow (depth bound violated)");
  GVC_CHECK_MSG(node.num_vertices() == num_vertices_,
                "degree array size mismatch");
  if (top_ == entries_.size()) entries_.emplace_back();
  entries_[top_] = node;
  ++top_;
  high_water_ = std::max(high_water_, top_);
}

bool LocalStack::try_pop(DegreeArray& out) {
  if (top_ == 0) return false;
  --top_;
  // Copy (not move) so the slot keeps its buffer — mirroring the GPU
  // discipline of fixed stack storage with memcpy in/out.
  out = entries_[top_];
  return true;
}

std::int64_t LocalStack::footprint_bytes() const {
  // Each slot stores one degree array entry: |V| 32-bit degrees plus the
  // two maintained counters.
  return capacity_ * (static_cast<std::int64_t>(num_vertices_) * 4 + 16);
}

Descent::Descent(const CsrGraph& g, BranchStateMode branch_state,
                 std::int64_t depth_bound, ReduceWorkspace& ws,
                 util::ActivityAccumulator* acc)
    : g_(g),
      ws_(ws),
      acc_(acc),
      trail_(branch_state == BranchStateMode::kUndoTrail),
      stack_(g.num_vertices(), depth_bound) {
  // A descent that stopped early (a limit, a PVC cover) leaves its frames in
  // the workspace; none of them belongs to this one.
  if (trail_) clear_trail();
}

void Descent::clear_trail() {
  ws_.undo_trail.reset();
  ws_.frames.clear();
}

void Descent::adopt(DegreeArray& da) {
  if (trail_) {
    // The adopted node replaces da's value wholesale, so nothing recorded
    // for the previous sub-tree is meaningful.
    clear_trail();
    da.attach_trail(&ws_.undo_trail);
  }
  adopt_node(da);
}

void Descent::branch(DegreeArray& da, graph::Vertex vmax, bool neighbors_kept,
                     const DegreeArray* built_child) {
  if (trail_) {
    timed(acc_, Activity::kStackPush, [&] {
      ws_.frames.push_back(
          {ws_.undo_trail.watermark(da), vmax, neighbors_kept});
    });
  } else if (neighbors_kept) {
    if (built_child == nullptr) {
      timed(acc_, Activity::kRemoveNeighbors, [&] {
        child_ = da;
        child_.remove_neighbors_into_solution(g_, vmax);
      });
      built_child = &child_;
    }
    timed(acc_, Activity::kStackPush, [&] { stack_.push(*built_child); });
  }
  timed(acc_, Activity::kRemoveMaxVertex,
        [&] { da.remove_into_solution(g_, vmax); });
}

bool Descent::next(DegreeArray& da) {
  if (trail_)
    return retreat_to_next_branch(ws_.undo_trail, ws_.frames, g_, da, acc_);
  const bool popped =
      timed(acc_, Activity::kStackPop, [&] { return stack_.try_pop(da); });
  if (popped) adopt_node(da);  // a fresh standalone node
  return popped;
}

}  // namespace gvc::vc

#include "vc/undo_trail.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gvc::vc {

UndoTrail::Mark UndoTrail::watermark(const DegreeArray& da) {
  Watermark wm;
  wm.trail_size = entries_.size();
  wm.saved_dirty_size = saved_dirty_.size();
  wm.solution_size = da.solution_size_;
  wm.num_edges = da.num_edges_;
  wm.max_bound = da.max_bound_;
  wm.max_hint = da.max_hint_;
  wm.dirty_cap = da.dirty_cap_;
  wm.fixpoint_mask = da.fixpoint_mask_;
  wm.tracking = da.tracking_;
  wm.dirty_overflow = da.dirty_overflow_;
  saved_dirty_.insert(saved_dirty_.end(), da.dirty_.begin(), da.dirty_.end());
  marks_.push_back(wm);
  ++lifetime_watermarks_;
  return marks_.size() - 1;
}

void UndoTrail::rollback(Mark mark, DegreeArray& da) {
  GVC_CHECK_MSG(!marks_.empty() && mark == marks_.size() - 1,
                "undo-trail rollback out of order (double undo?)");
  const Watermark wm = marks_.back();
  marks_.pop_back();

  peak_entries_ = std::max(peak_entries_, entries_.size());
  GVC_DCHECK(entries_.size() >= wm.trail_size);
  lifetime_entries_ += entries_.size() - wm.trail_size;

  // Reverse replay: a vertex mutated several times ends at its value as of
  // the watermark (its oldest entry above the cut wins by running last).
  // Every entry's old degree is a present one, so a vertex the subtree
  // removed into S gets its presence bit back.
  for (std::size_t i = entries_.size(); i > wm.trail_size; --i) {
    const Entry& e = entries_[i - 1];
    auto& d = da.deg_[static_cast<std::size_t>(e.v)];
    if (d == DegreeArray::kInSolution) da.set_present_bit(e.v);
    d = e.old_degree;
  }
  entries_.resize(wm.trail_size);

  da.solution_size_ = wm.solution_size;
  da.num_edges_ = wm.num_edges;
  // The maximum-degree cache was valid for the watermark state; the degrees are
  // that state again, so it is valid once more. (It may have been tightened
  // below restored degrees inside the sub-tree — restoring it is what keeps
  // the "bound never below the true maximum" invariant.)
  da.max_bound_ = wm.max_bound;
  da.max_hint_ = wm.max_hint;

  // Dirty-log bookkeeping: the incremental engine's candidate feed must see
  // exactly the log the copying path's child copy would have carried.
  da.tracking_ = wm.tracking;
  da.dirty_overflow_ = wm.dirty_overflow;
  da.fixpoint_mask_ = wm.fixpoint_mask;
  da.dirty_cap_ = wm.dirty_cap;
  da.dirty_.assign(saved_dirty_.begin() +
                       static_cast<std::ptrdiff_t>(wm.saved_dirty_size),
                   saved_dirty_.end());
  saved_dirty_.resize(wm.saved_dirty_size);
}

void UndoTrail::reset() {
  // Fold the discarded extent into the lifetime stats first: every entry is
  // counted exactly once — popped by rollback, or discarded here.
  peak_entries_ = std::max(peak_entries_, entries_.size());
  lifetime_entries_ += entries_.size();
  entries_.clear();
  marks_.clear();
  saved_dirty_.clear();
}

}  // namespace gvc::vc

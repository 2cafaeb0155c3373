#include "vc/degree_array.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "vc/undo_trail.hpp"

namespace gvc::vc {

DegreeArray::DegreeArray(const CsrGraph& g)
    : n_(g.num_vertices()),
      solution_size_(0),
      num_edges_(g.num_edges()) {
  const std::size_t words = presence_words(n_);
  deg_.assign(presence_base() + 2 * words, 0);
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t live = std::min<std::size_t>(
        64, static_cast<std::size_t>(n_) - 64 * w);
    set_presence_word(w, live == 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << live) - 1);
  }
  std::int32_t best = -1;
  for (Vertex v = 0; v < n_; ++v) {
    const std::int32_t d = g.degree(v);
    deg_[static_cast<std::size_t>(v)] = d;
    if (d > best) {
      best = d;
      max_hint_ = v;
    }
  }
  max_bound_ = best < 0 ? 0 : best;
}

// The 2x2 specialization keeps the hot loop free of per-neighbor branches:
// the tracking and trail tests are hoisted to one dispatch per call, so the
// paper-faithful configuration (no tracking, no trail) runs the plain
// decrement loop.
template <bool kTrack, bool kTrail>
void DegreeArray::decrement_neighbors(const CsrGraph& g, Vertex v) {
  for_each_present_neighbor(g, v, [&](Vertex u) {
    auto& d = deg_[static_cast<std::size_t>(u)];
    if constexpr (kTrail) trail_.get()->record(u, d);
    --d;
    if constexpr (kTrack) {
      if (dirty_.size() >= dirty_cap_)
        dirty_overflow_ = true;
      else
        dirty_.push_back(u);
    }
  });
}

void DegreeArray::remove_into_solution(const CsrGraph& g, Vertex v) {
  GVC_DCHECK(present(v));
  UndoTrail* trail = trail_.get();
  if (trail) trail->record(v, deg_[static_cast<std::size_t>(v)]);
  num_edges_ -= deg_[static_cast<std::size_t>(v)];
  deg_[static_cast<std::size_t>(v)] = kInSolution;
  clear_present_bit(v);
  ++solution_size_;
  const bool track = tracking_ && !dirty_overflow_;
  switch ((trail ? 2 : 0) | (track ? 1 : 0)) {
    case 0: decrement_neighbors<false, false>(g, v); break;
    case 1: decrement_neighbors<true, false>(g, v); break;
    case 2: decrement_neighbors<false, true>(g, v); break;
    case 3: decrement_neighbors<true, true>(g, v); break;
  }
}

int DegreeArray::remove_neighbors_into_solution(const CsrGraph& g, Vertex v) {
  GVC_DCHECK(present(v));
  int removed = 0;
  for_each_present_neighbor(g, v, [&](Vertex u) {
    remove_into_solution(g, u);
    ++removed;
  });
  return removed;
}

Vertex DegreeArray::max_degree_vertex() const {
  // Fast path: the hint still holds the cached maximum. Degrees never
  // increase, so no vertex can exceed max_bound_, and every vertex with a
  // smaller id than the hint had a smaller degree at the last scan and can
  // only have dropped since — the hint is still the smallest-id maximum.
  if (max_hint_ >= 0) {
    const std::int32_t d = deg_[static_cast<std::size_t>(max_hint_)];
    if (d != kInSolution && d == max_bound_) return max_hint_;
  }
  // Rescan the present vertices in ascending id order, early-exiting as
  // soon as the (still valid) upper bound is reached; then tighten the
  // bound and re-arm the hint.
  Vertex arg = -1;
  std::int32_t best = -1;
  const std::size_t words = presence_words(n_);
  for (std::size_t w = 0; w < words && best != max_bound_; ++w) {
    for (std::uint64_t bits = presence_word(w); bits != 0; bits &= bits - 1) {
      const std::size_t v = 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
      const std::int32_t d = deg_[v];
      if (d > best) {
        best = d;
        arg = static_cast<Vertex>(v);
        if (best == max_bound_) break;
      }
    }
  }
  max_bound_ = best < 0 ? 0 : best;
  max_hint_ = arg;
  return arg;
}

std::int32_t DegreeArray::max_degree() const {
  if (num_edges_ == 0) return 0;
  Vertex v = max_degree_vertex();
  return v < 0 ? 0 : degree(v);
}

std::vector<Vertex> DegreeArray::solution() const {
  std::vector<Vertex> out;
  out.reserve(static_cast<std::size_t>(solution_size_));
  for (Vertex v = 0; v < num_vertices(); ++v)
    if (!present(v)) out.push_back(v);
  return out;
}

std::vector<Vertex> DegreeArray::present_vertices() const {
  std::vector<Vertex> out;
  for (Vertex v = 0; v < num_vertices(); ++v)
    if (present(v)) out.push_back(v);
  return out;
}

void DegreeArray::check_consistency(const CsrGraph& g) const {
  GVC_CHECK(g.num_vertices() == num_vertices());
  std::int64_t edges = 0;
  std::int32_t removed = 0;
  std::int32_t true_max = 0;
  GVC_CHECK_MSG(deg_.size() == presence_base() + 2 * presence_words(n_),
                "degree storage size out of sync");
  if (presence_base() != static_cast<std::size_t>(n_))
    GVC_CHECK_MSG(deg_[static_cast<std::size_t>(n_)] == 0,
                  "degree storage pad slot not zero");
  for (std::size_t w = 0; w < presence_words(n_); ++w) {
    for (std::size_t i = 0; i < 64; ++i) {
      const std::size_t v = 64 * w + i;
      const bool bit = (presence_word(w) >> i) & 1u;
      const bool want = v < static_cast<std::size_t>(n_) &&
                        present(static_cast<Vertex>(v));
      GVC_CHECK_MSG(bit == want, "presence bitset out of sync");
    }
  }
  for (Vertex v = 0; v < num_vertices(); ++v) {
    if (!present(v)) {
      ++removed;
      continue;
    }
    std::int32_t expect = 0;
    for (Vertex u : g.neighbors(v))
      if (present(u)) ++expect;
    GVC_CHECK_MSG(degree(v) == expect, "degree array out of sync");
    edges += expect;
    true_max = std::max(true_max, expect);
  }
  GVC_CHECK_MSG(removed == solution_size_, "solution counter out of sync");
  GVC_CHECK_MSG(edges / 2 == num_edges_, "edge counter out of sync");
  GVC_CHECK_MSG(max_bound_ >= true_max, "maximum-degree bound out of sync");
  if (max_hint_ >= 0)
    GVC_CHECK_MSG(max_hint_ < num_vertices(),
                  "maximum-degree hint out of range");
  for (Vertex v : dirty_)
    GVC_CHECK_MSG(v >= 0 && v < num_vertices(), "dirty log entry out of range");
}

}  // namespace gvc::vc

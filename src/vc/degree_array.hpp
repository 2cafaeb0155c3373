#pragma once

// The degree-array representation of an intermediate graph (§IV-B).
//
// A search-tree node's state (G', S) is the immutable original CSR graph
// plus one array with an entry per original vertex: the vertex's current
// degree if it is still in the graph, or a sentinel if it has been removed
// and added to the solution S. Two maintained counters — |S| and |E(G')| —
// implement the paper's optimization of not re-reducing over the array for
// every stopping-condition check.
//
// The representation is:
//   * compact: O(|V|) per tree node, which is what lets thousands of stack
//     and worklist entries coexist in memory; and
//   * self-contained: any thread block holding the original CSR can resume
//     traversal from a degree array alone, which is what makes donating
//     branches to the global worklist possible.
//
// Three accelerations layered on top of the plain array:
//
//   * Presence bitset. Alongside the degrees the array keeps ⌈n/64⌉ words
//     with bit v set iff v is present. remove_into_solution() clears a bit
//     and an undo-trail rollback sets it again; it is value state, so every
//     copy (stack slots, worklist donations, steals) carries it. When the
//     CSR graph has adjacency bitset rows (graph/csr.hpp), a live neighbor
//     walk ANDs v's row with these words and visits only present neighbors:
//     O(⌈n/64⌉ + live neighbors) instead of O(original degree). Without rows
//     the walk stays the sorted CSR scan. Both visit neighbors in ascending
//     id order, so every mutation sequence — and hence every search tree —
//     is the same either way. The max-degree rescan below also walks the
//     presence bits rather than all n entries. The words share the degree
//     vector's allocation (they sit after the degrees), so a copy still
//     costs one heap allocation.
//
//   * Max-degree cache. Degrees only ever decrease (every mutation removes
//     vertices), so the maximum degree is monotone non-increasing over a
//     node's lifetime and across copies. `max_bound_` is a maintained upper
//     bound on the current maximum, and `max_hint_` the smallest-id vertex
//     that achieved it at the last scan; while the hint still holds its
//     degree the branching query `max_degree_vertex()` is O(1), and every
//     full rescan both tightens the bound and re-arms the hint. The caches
//     never affect logical state: they are ignored by operator== and
//     validated (never trusted) by check_consistency().
//
//   * Dirty-vertex log. With tracking enabled, every degree decrement
//     appends the affected vertex to `dirty_`. The log is value state — it
//     is copied with the node through local stacks, the global worklist and
//     steal deques — which is what lets the incremental reduction engine
//     (vc/reductions.hpp, ReduceSemantics::kIncremental) seed its rule
//     worklists from exactly the vertices a branch decision touched instead
//     of rescanning all |V|. Tracking is off by default and costs nothing
//     when off; the paper-faithful solvers never enable it.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/csr.hpp"

namespace gvc::vc {

using graph::CsrGraph;
using graph::Vertex;

class UndoTrail;

class DegreeArray {
 public:
  /// Sentinel degree marking "removed from G and added to S".
  static constexpr std::int32_t kInSolution = -1;

  DegreeArray() = default;

  /// Root state: every vertex present with its original degree, S = ∅.
  explicit DegreeArray(const CsrGraph& g);

  // Value semantics, with one deliberate exception: the undo-trail
  // attachment never travels with a copy or a move. A trail is private to
  // the block that owns the attached array; a node leaving that block — a
  // worklist donation, a steal, a stack slot — is a standalone snapshot.
  // Construction therefore starts detached, and assignment replaces the
  // VALUE while the destination keeps its own attachment (so a block's
  // working array can adopt a popped node without re-attaching). The
  // non-propagating TrailRef member below implements exactly that, which
  // lets every special member stay defaulted — a future field cannot be
  // forgotten in a hand-written copy.

  Vertex num_vertices() const { return n_; }

  bool present(Vertex v) const {
    return deg_[static_cast<std::size_t>(v)] != kInSolution;
  }

  /// Current degree; must only be called on present vertices.
  std::int32_t degree(Vertex v) const { return deg_[static_cast<std::size_t>(v)]; }

  /// |S|: number of vertices removed into the solution.
  std::int32_t solution_size() const { return solution_size_; }

  /// |E(G')|: edges among present vertices (maintained incrementally).
  std::int64_t num_edges() const { return num_edges_; }

  /// Removes v from the graph and adds it to S. Decrements the degrees of
  /// its present neighbors. Requires present(v).
  void remove_into_solution(const CsrGraph& g, Vertex v);

  /// Calls f(u) for every present neighbor u of v in ascending id order.
  /// If f returns bool, the walk stops at the first false. f may remove the
  /// neighbor it is handed (or decrement degrees), but must not remove any
  /// other vertex. With adjacency rows this costs O(⌈n/64⌉ + present
  /// neighbors); otherwise it scans v's CSR list.
  template <typename F>
  void for_each_present_neighbor(const CsrGraph& g, Vertex v, F&& f) const {
    auto visit = [&f](Vertex u) {
      if constexpr (std::is_same_v<std::invoke_result_t<F&, Vertex>, bool>) {
        return f(u);
      } else {
        f(u);
        return true;
      }
    };
    if (g.has_rows()) {
      const std::uint64_t* row = g.row(v);
      for (std::size_t w = 0; w < g.row_words(); ++w) {
        for (std::uint64_t bits = row[w] & presence_word(w); bits != 0;
             bits &= bits - 1) {
          if (!visit(static_cast<Vertex>(64 * w + static_cast<std::size_t>(
                                                      std::countr_zero(bits)))))
            return;
        }
      }
      return;
    }
    for (Vertex u : g.neighbors(v))
      if (present(u) && !visit(u)) return;
  }

  /// Word w of the presence bitset: bit i is set iff vertex 64·w + i is
  /// present. Bits at or past num_vertices() are zero.
  std::uint64_t presence_word(std::size_t w) const {
    std::uint64_t bits;
    std::memcpy(&bits, deg_.data() + presence_base() + 2 * w, sizeof bits);
    return bits;
  }

  /// Removes every present neighbor of v into S (the "neighbors branch").
  /// Returns the number of vertices removed. Requires present(v); v itself
  /// stays in the graph and ends with degree 0.
  int remove_neighbors_into_solution(const CsrGraph& g, Vertex v);

  /// Present vertex of maximum degree, smallest id on ties (deterministic,
  /// matching a parallel max-reduction with index tie-breaking). Returns -1
  /// if no vertex is present. O(1) while the cached hint vertex still holds
  /// the cached maximum; otherwise one early-exiting scan over the presence
  /// bits (which re-arms the cache).
  Vertex max_degree_vertex() const;

  /// Maximum current degree (0 if the graph is edgeless or empty). Exact;
  /// served from the cache on the same terms as max_degree_vertex().
  std::int32_t max_degree() const;

  /// Cheap upper bound on max_degree(): never smaller than the true value,
  /// tightened as a side effect of max_degree_vertex() scans. The
  /// incremental high-degree rule uses it as an O(1) "rule cannot apply"
  /// gate.
  std::int32_t max_degree_bound() const { return max_bound_; }

  // --- change tracking (feeds the incremental reduction engine) ----------

  /// Starts recording every vertex whose degree drops into the dirty log.
  void enable_tracking() {
    tracking_ = true;
    dirty_cap_ = dirty_capacity(num_vertices());
  }

  /// Stops recording and discards the log.
  void disable_tracking() {
    tracking_ = false;
    dirty_.clear();
    dirty_overflow_ = false;
    fixpoint_mask_ = 0;
  }

  bool tracking() const { return tracking_; }

  /// Vertices whose degree dropped since the last clear_dirty(), in
  /// mutation order, possibly with duplicates. Meaningful only while
  /// tracking is enabled and dirty_overflowed() is false.
  const std::vector<Vertex>& dirty() const { return dirty_; }

  /// True once more degrees changed than the log is willing to carry
  /// (max(64, |V|/8) entries — beyond that the change set is no longer
  /// "small" and a consumer is better off rescanning). The log contents are
  /// then incomplete: consumers must fall back to a full seed scan. The cap
  /// also bounds the log's contribution to per-node copy cost through the
  /// stacks and worklists.
  bool dirty_overflowed() const { return dirty_overflow_; }

  /// Appends v to the dirty log (no-op when tracking is off; latches
  /// overflow at the cap).
  void mark_dirty(Vertex v) {
    if (!tracking_) return;
    if (dirty_.size() >= dirty_cap_)
      dirty_overflow_ = true;
    else
      dirty_.push_back(v);
  }

  void clear_dirty() {
    dirty_.clear();
    dirty_overflow_ = false;
  }

  /// Engine hooks. While a reduction is running it drains the log after
  /// every application, so production never outpaces consumption and the
  /// cap is suspended; between reductions the (restored) cap bounds what a
  /// branch mutation may accumulate — and what every node copy carries.
  void suspend_dirty_cap() {
    dirty_cap_ = std::numeric_limits<std::size_t>::max();
  }
  void restore_dirty_cap() { dirty_cap_ = dirty_capacity(num_vertices()); }

  // --- undo trail (apply/undo branching, BranchStateMode::kUndoTrail) ----

  /// Attaches an undo trail: every subsequent degree mutation records the
  /// (vertex, old value) entry needed to reverse it. Pass nullptr to
  /// detach. The attachment is NOT value state: copies and moves of this
  /// array start detached (see the copy-semantics note above), and
  /// operator== ignores it.
  void attach_trail(UndoTrail* trail) { trail_.set(trail); }
  UndoTrail* trail() const { return trail_.get(); }

  /// Bitmask of candidate-driven rules whose fixpoint the last incremental
  /// reduction established on this lineage (and whose candidates the log
  /// has captured since). A rule whose bit is unset — never run, or
  /// disabled on the previous call — must re-seed with a full scan rather
  /// than trust the log. Maintained by the incremental engine; travels
  /// with copies like the rest of the tracking state.
  std::uint8_t reduce_fixpoint_mask() const { return fixpoint_mask_; }
  void set_reduce_fixpoint_mask(std::uint8_t mask) { fixpoint_mask_ = mask; }
  /// The mask's bits, one per candidate-driven rule.
  static constexpr std::uint8_t kRuleBitDegreeOne = 1;
  static constexpr std::uint8_t kRuleBitDegreeTwo = 2;

  /// The solution set S (ascending vertex order).
  std::vector<Vertex> solution() const;

  /// Present vertices (ascending).
  std::vector<Vertex> present_vertices() const;

  /// Recomputes degrees / |S| / |E| / presence bits from scratch against g
  /// and aborts on any divergence from the maintained values, including a
  /// maximum-degree cache bound below the true maximum. Test and debugging
  /// aid.
  void check_consistency(const CsrGraph& g) const;

  /// Logical-state equality: degrees (with the presence bits they imply)
  /// and counters. The maximum-degree cache and the dirty log are
  /// accelerations, not state, and are ignored.
  bool operator==(const DegreeArray& other) const {
    return deg_ == other.deg_ && solution_size_ == other.solution_size_ &&
           num_edges_ == other.num_edges_;
  }

  /// The degree entries, one per vertex (kInSolution for removed ones).
  std::span<const std::int32_t> raw() const {
    return {deg_.data(), static_cast<std::size_t>(n_)};
  }

 private:
  /// The trail reads and restores every private field on rollback.
  friend class UndoTrail;

  /// Non-propagating pointer to the attached undo trail: copy/move
  /// CONSTRUCTION yields a detached member, copy/move ASSIGNMENT keeps the
  /// destination's attachment — the sharing rule in type form, so
  /// DegreeArray's special members can all be `= default`.
  class TrailRef {
   public:
    TrailRef() = default;
    TrailRef(const TrailRef&) {}
    TrailRef(TrailRef&&) noexcept {}
    TrailRef& operator=(const TrailRef&) { return *this; }
    TrailRef& operator=(TrailRef&&) noexcept { return *this; }

    void set(UndoTrail* ptr) { ptr_ = ptr; }
    UndoTrail* get() const { return ptr_; }

   private:
    UndoTrail* ptr_ = nullptr;
  };

  template <bool kTrack, bool kTrail>
  void decrement_neighbors(const CsrGraph& g, Vertex v);

  // Presence words live in deg_ after the degrees, starting at an even
  // index so each 64-bit word spans two aligned int32 slots; they are read
  // and written through memcpy.
  std::size_t presence_base() const {
    return (static_cast<std::size_t>(n_) + 1) & ~std::size_t{1};
  }
  static std::size_t presence_words(Vertex n) {
    return (static_cast<std::size_t>(n) + 63) / 64;
  }
  void set_presence_word(std::size_t w, std::uint64_t bits) {
    std::memcpy(deg_.data() + presence_base() + 2 * w, &bits, sizeof bits);
  }
  void set_present_bit(Vertex v) {
    const std::size_t w = static_cast<std::size_t>(v) >> 6;
    set_presence_word(w, presence_word(w) | std::uint64_t{1} << (v & 63));
  }
  void clear_present_bit(Vertex v) {
    const std::size_t w = static_cast<std::size_t>(v) >> 6;
    set_presence_word(w, presence_word(w) & ~(std::uint64_t{1} << (v & 63)));
  }

  Vertex n_ = 0;
  /// n_ degrees, a zero pad slot when n_ is odd, then the presence words
  /// (two int32 slots each).
  std::vector<std::int32_t> deg_;
  std::int32_t solution_size_ = 0;
  std::int64_t num_edges_ = 0;

  // Max-degree cache: bound_ is a monotone upper bound (degrees never
  // increase), hint_ the smallest-id vertex that last achieved it. Mutable
  // because queries tighten them; both are derived data, never trusted
  // beyond their invariants.
  mutable std::int32_t max_bound_ = 0;
  mutable Vertex max_hint_ = -1;

  static std::size_t dirty_capacity(Vertex n) {
    return std::max<std::size_t>(64, static_cast<std::size_t>(n) / 8);
  }

  bool tracking_ = false;
  bool dirty_overflow_ = false;
  std::uint8_t fixpoint_mask_ = 0;
  std::size_t dirty_cap_ = 0;
  std::vector<Vertex> dirty_;

  /// Not owned; never copied or moved with the value (see TrailRef).
  TrailRef trail_;
};

}  // namespace gvc::vc

#pragma once

// Compressed Sparse Row representation of a finite, simple, undirected graph
// (§IV-B of the paper). A single immutable CSR instance is shared by every
// thread block; all intermediate graphs are expressed as degree arrays
// layered on top of it (see vc/degree_array.hpp).
//
// Dense graphs also carry adjacency bitset rows: row v holds ⌈n/64⌉ words
// with bit u set iff u ∈ adj(v). Rows are built by the constructor only when
// they are no larger than the adjacency list itself — n·⌈n/64⌉ ≤ |E| words
// against |E| words of adjacency (2|E| 32-bit arcs) — so a graph never costs
// more than twice its CSR. With rows, has_edge() is one bit test and a
// degree array can walk only its live neighbors by ANDing a row with its
// presence bitset (vc::DegreeArray::for_each_present_neighbor). Sparse
// graphs stay on the sorted CSR walk.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gvc::graph {

/// Vertex identifier. Graphs in this project are bounded by host memory,
/// well within 32-bit range.
using Vertex = std::int32_t;

/// Immutable undirected graph in CSR form.
///
/// Invariants (checked by validate()):
///  * offsets has size n+1, offsets[0] == 0, non-decreasing;
///  * adjacency of every vertex is sorted ascending and duplicate-free;
///  * no self-loops;
///  * symmetric: u ∈ adj(v) ⇔ v ∈ adj(u).
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of raw CSR arrays and builds the bitset rows when the
  /// size gate above admits them. Call validate() afterwards if the arrays
  /// come from an untrusted source; the builder already guarantees the
  /// invariants. Row building tolerates unvalidated arrays: out-of-range
  /// neighbor ids are left out of the rows (validate() still reports them).
  CsrGraph(std::vector<std::int64_t> offsets, std::vector<Vertex> adjacency);

  /// Number of vertices.
  Vertex num_vertices() const { return static_cast<Vertex>(offsets_.size()) - 1; }

  /// Number of undirected edges (half the stored directed arcs).
  std::int64_t num_edges() const { return static_cast<std::int64_t>(adjacency_.size()) / 2; }

  /// Degree of v in the original graph.
  Vertex degree(Vertex v) const {
    return static_cast<Vertex>(offsets_[static_cast<std::size_t>(v) + 1] -
                               offsets_[static_cast<std::size_t>(v)]);
  }

  /// Sorted neighbors of v.
  std::span<const Vertex> neighbors(Vertex v) const {
    auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {adjacency_.data() + b, e - b};
  }

  /// Adjacency test: one bit test with rows, O(log deg) without.
  bool has_edge(Vertex u, Vertex v) const;

  /// Whether the adjacency bitset rows were built (see the file comment).
  bool has_rows() const { return !rows_.empty(); }

  /// Words per bitset row, ⌈n/64⌉; 0 when there are no rows.
  std::size_t row_words() const { return row_words_; }

  /// Bitset row of v (row_words() words). Requires has_rows().
  const std::uint64_t* row(Vertex v) const {
    return rows_.data() + static_cast<std::size_t>(v) * row_words_;
  }

  /// Maximum degree Δ(G); 0 for an empty graph.
  Vertex max_degree() const;

  /// Average degree 2|E|/|V|; 0 for an empty graph.
  double average_degree() const;

  /// Verifies all class invariants; aborts with a message on violation.
  /// Intended for tests and for graphs loaded from disk.
  void validate() const;

  /// Structural equality (same vertex count and adjacency). The rows are
  /// derived from the adjacency, so they are not compared.
  bool operator==(const CsrGraph& other) const {
    return offsets_ == other.offsets_ && adjacency_ == other.adjacency_;
  }

  const std::vector<std::int64_t>& offsets() const { return offsets_; }
  const std::vector<Vertex>& adjacency() const { return adjacency_; }

 private:
  std::vector<std::int64_t> offsets_ = {0};
  std::vector<Vertex> adjacency_;
  std::size_t row_words_ = 0;
  std::vector<std::uint64_t> rows_;  ///< n rows of row_words_ words, or empty
};

}  // namespace gvc::graph

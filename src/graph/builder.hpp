#pragma once

// Edge-list accumulation and CSR construction. All generators and parsers
// funnel through GraphBuilder, which normalizes input (drops self-loops,
// deduplicates, symmetrizes) so every CsrGraph in the system satisfies the
// simple-undirected invariants by construction.

#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace gvc::graph {

class GraphBuilder {
 public:
  /// n: number of vertices (fixed up front; edges to out-of-range vertices
  /// are a programming error).
  explicit GraphBuilder(Vertex n);

  Vertex num_vertices() const { return n_; }

  /// Records an undirected edge {u, v}. Self-loops are silently dropped;
  /// duplicates are deduplicated at build time. Order of u, v is irrelevant.
  void add_edge(Vertex u, Vertex v);

  /// Whether {u,v} has been recorded (linear scan; for tests/generators).
  bool contains(Vertex u, Vertex v) const;

  /// Builds the CSR graph. The builder may be reused afterwards (its edge
  /// list is preserved).
  CsrGraph build() const;

  /// The normalized edge set (u < v, sorted, deduplicated).
  std::vector<std::pair<Vertex, Vertex>> normalized_edges() const;

 private:
  Vertex n_;
  std::vector<std::pair<Vertex, Vertex>> edges_;
};

/// Convenience: CSR from an explicit edge list.
CsrGraph from_edges(Vertex n,
                    const std::vector<std::pair<Vertex, Vertex>>& edges);

}  // namespace gvc::graph

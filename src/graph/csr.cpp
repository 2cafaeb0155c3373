#include "graph/csr.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gvc::graph {

CsrGraph::CsrGraph(std::vector<std::int64_t> offsets,
                   std::vector<Vertex> adjacency)
    : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {
  GVC_CHECK_MSG(!offsets_.empty(), "CSR offsets must have at least one entry");
  GVC_CHECK(offsets_.front() == 0);
  GVC_CHECK(offsets_.back() == static_cast<std::int64_t>(adjacency_.size()));

  const Vertex n = num_vertices();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  if (static_cast<std::size_t>(n) * words > static_cast<std::size_t>(num_edges()))
    return;  // rows would outweigh the adjacency list
  row_words_ = words;
  rows_.assign(static_cast<std::size_t>(n) * words, 0);
  // Offsets are clamped and ids range-checked: the arrays may be unvalidated.
  const auto arcs = static_cast<std::int64_t>(adjacency_.size());
  for (Vertex v = 0; v < n; ++v) {
    const std::int64_t b = std::clamp<std::int64_t>(
        offsets_[static_cast<std::size_t>(v)], 0, arcs);
    const std::int64_t e = std::clamp<std::int64_t>(
        offsets_[static_cast<std::size_t>(v) + 1], b, arcs);
    std::uint64_t* r = rows_.data() + static_cast<std::size_t>(v) * words;
    for (std::int64_t i = b; i < e; ++i) {
      const Vertex u = adjacency_[static_cast<std::size_t>(i)];
      if (u < 0 || u >= n) continue;
      r[static_cast<std::size_t>(u) >> 6] |= std::uint64_t{1} << (u & 63);
    }
  }
}

bool CsrGraph::has_edge(Vertex u, Vertex v) const {
  if (has_rows())
    return (row(u)[static_cast<std::size_t>(v) >> 6] >> (v & 63)) & 1u;
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

Vertex CsrGraph::max_degree() const {
  Vertex best = 0;
  for (Vertex v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

double CsrGraph::average_degree() const {
  if (num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices());
}

void CsrGraph::validate() const {
  const Vertex n = num_vertices();
  GVC_CHECK(offsets_.front() == 0);
  for (std::size_t i = 0; i + 1 < offsets_.size(); ++i)
    GVC_CHECK_MSG(offsets_[i] <= offsets_[i + 1], "offsets not monotone");
  GVC_CHECK(offsets_.back() == static_cast<std::int64_t>(adjacency_.size()));

  for (Vertex v = 0; v < n; ++v) {
    auto nbrs = neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      Vertex u = nbrs[i];
      GVC_CHECK_MSG(u >= 0 && u < n, "neighbor out of range");
      GVC_CHECK_MSG(u != v, "self-loop");
      if (i > 0) GVC_CHECK_MSG(nbrs[i - 1] < u, "adjacency unsorted/duplicate");
      GVC_CHECK_MSG(has_edge(u, v), "asymmetric edge");
    }
  }
}

}  // namespace gvc::graph

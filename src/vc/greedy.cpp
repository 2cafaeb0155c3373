#include "vc/greedy.hpp"

#include <queue>

#include "util/check.hpp"

namespace gvc::vc {

GreedyResult greedy_mvc(const CsrGraph& g) {
  // The textbook loop — reduce to a fixpoint, remove max_degree_vertex(),
  // repeat — rescans all |V| for every pick, because each removal spoils
  // the maximum-degree hint. This loop makes the same picks in
  // O((|V| + |E|) log |V|): a lazy max-heap of (degree, -id) entries orders
  // vertices exactly as max_degree_vertex() does (largest degree, then
  // smallest id). Degrees only drop, so every present vertex always has an
  // entry at or above its current degree; a popped entry whose degree is
  // stale is re-pushed at the current one, and the first current entry is
  // the true maximum. kIncremental reduces are bit-identical to kSerial
  // and cost O(changed) per pick.
  DegreeArray da(g);
  const BudgetPolicy policy = BudgetPolicy::none();
  ReduceWorkspace ws;
  reduce(g, da, policy, ReduceSemantics::kIncremental, {}, nullptr, &ws);
  std::priority_queue<std::pair<std::int32_t, Vertex>> heap;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (da.present(v) && da.degree(v) > 0) heap.emplace(da.degree(v), -v);
  while (da.num_edges() > 0) {
    GVC_DCHECK(!heap.empty());
    const auto [d, neg_v] = heap.top();
    heap.pop();
    const Vertex v = -neg_v;
    if (!da.present(v)) continue;
    if (da.degree(v) != d) {
      if (da.degree(v) > 0) heap.emplace(da.degree(v), neg_v);
      continue;
    }
    da.remove_into_solution(g, v);
    reduce(g, da, policy, ReduceSemantics::kIncremental, {}, nullptr, &ws);
  }
  return GreedyResult{da.solution_size(), da.solution()};
}

std::vector<std::pair<Vertex, Vertex>> maximal_matching(const CsrGraph& g) {
  std::vector<bool> matched(static_cast<std::size_t>(g.num_vertices()), false);
  std::vector<std::pair<Vertex, Vertex>> matching;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (matched[static_cast<std::size_t>(v)]) continue;
    for (Vertex u : g.neighbors(v)) {
      if (u > v && !matched[static_cast<std::size_t>(u)]) {
        matched[static_cast<std::size_t>(v)] = true;
        matched[static_cast<std::size_t>(u)] = true;
        matching.emplace_back(v, u);
        break;
      }
    }
  }
  return matching;
}

int matching_lower_bound(const CsrGraph& g) {
  return static_cast<int>(maximal_matching(g).size());
}

std::vector<Vertex> two_approx_cover(const CsrGraph& g) {
  std::vector<Vertex> cover;
  for (auto [u, v] : maximal_matching(g)) {
    cover.push_back(u);
    cover.push_back(v);
  }
  return cover;
}

}  // namespace gvc::vc

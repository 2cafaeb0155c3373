// Maximum Independent Set on a social graph — the MIS/MVC equivalence the
// paper discusses in §VI (a maximum independent set is the complement of a
// minimum vertex cover).
//
// Scenario: a brand wants to sponsor as many creators as possible from a
// social network under the constraint that no two sponsored creators follow
// each other (avoiding overlapping audiences). That is a maximum
// independent set of the follower graph: every creator outside a minimum
// vertex cover, which the Hybrid solver computes.
//
//   ./social_independent_set [--creators 250] [--m 3]

#include <algorithm>
#include <cstdio>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/stats.hpp"
#include "parallel/solver.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace gvc;
  util::Args args(argc, argv);
  const auto creators = static_cast<graph::Vertex>(args.get_int("creators", 250));
  const int m = static_cast<int>(args.get_int("m", 3));

  // Preferential attachment mirrors follower-count distributions: a few
  // hub creators, many niche ones.
  graph::CsrGraph g = graph::barabasi_albert(creators, m, 4242);
  std::printf("follower graph: %s\n\n",
              graph::compute_stats(g).to_string().c_str());

  parallel::ParallelResult mvc =
      parallel::solve(g, parallel::Method::kHybrid, parallel::ParallelConfig{});
  std::vector<bool> in_cover(static_cast<std::size_t>(creators), false);
  for (auto v : mvc.cover) in_cover[static_cast<std::size_t>(v)] = true;
  std::vector<graph::Vertex> cohort;
  for (graph::Vertex v = 0; v < creators; ++v)
    if (!in_cover[static_cast<std::size_t>(v)]) cohort.push_back(v);

  std::printf("maximum sponsorship cohort: %zu of %d creators\n",
              cohort.size(), creators);
  std::printf("(equivalently: minimum vertex cover has %d vertices; "
              "%llu search-tree nodes)\n",
              mvc.best_size, static_cast<unsigned long long>(mvc.tree_nodes));

  if (!graph::is_independent_set(g, cohort)) {
    std::fprintf(stderr, "BUG: cohort contains a follower edge!\n");
    return 1;
  }
  std::printf("verified: no two sponsored creators follow each other\n");

  // Hubs are almost never in the cohort — show the five highest-degree
  // creators and whether they were selected.
  std::printf("\nhighest-degree creators:\n");
  std::vector<graph::Vertex> by_degree;
  for (graph::Vertex v = 0; v < creators; ++v) by_degree.push_back(v);
  std::sort(by_degree.begin(), by_degree.end(),
            [&](auto a, auto b) { return g.degree(a) > g.degree(b); });
  for (int i = 0; i < 5 && i < creators; ++i) {
    auto v = by_degree[static_cast<std::size_t>(i)];
    std::printf("  creator %4d: %4d followers -> %s\n", v, g.degree(v),
                in_cover[static_cast<std::size_t>(v)] ? "skipped" : "sponsored");
  }
  return 0;
}

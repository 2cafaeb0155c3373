// gvc_info — structural report for graph files.
//
//   gvc_info GRAPH [GRAPH...] [--bounds]
//
// Prints the Table I columns (|V|, |E|, |E|/|V|, degree class) plus shape
// measures for each file. With --bounds, also computes the solver-relevant
// brackets: greedy upper bound, matching/clique-cover/LP lower bounds, and
// the folding-kernel size (how much of the instance degree ≤ 2 structure
// dissolves before branching even starts).

#include <cstdio>

#include "cli_common.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "util/cli.hpp"
#include "vc/bounds.hpp"
#include "vc/folding.hpp"
#include "vc/greedy.hpp"
#include "vc/kernelization.hpp"

int main(int argc, char** argv) {
  using namespace gvc;
  util::Args args(argc, argv);
  graph::set_max_header_vertices(tools::kToolMaxHeaderVertices);

  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: %s GRAPH [GRAPH...] [--bounds]\n",
                 args.program().c_str());
    return 64;
  }

  for (const std::string& path : args.positional()) {
    graph::CsrGraph g = graph::load_graph(path);
    graph::GraphStats stats = graph::compute_stats(g);
    std::printf("%s\n  %s\n  class: %s-degree (Table I split)\n",
                path.c_str(), stats.to_string().c_str(),
                graph::is_high_degree(stats) ? "high" : "low");

    if (args.get_bool("bounds", false)) {
      vc::GreedyResult greedy = vc::greedy_mvc(g);
      const int lb = vc::lower_bound(g);
      vc::NtKernel nt = vc::nemhauser_trotter(g);
      vc::FoldedKernel folded = vc::fold_reduce(g);
      std::printf(
          "  bounds: %d <= mvc <= %d (matching/clique-cover lower, greedy "
          "upper), LP lower %d\n"
          "  NT kernel: %d vertices | folding kernel: %d vertices, %lld "
          "edges (+%d resolved)\n",
          lb, greedy.size, nt.lp_lower_bound, nt.kernel.num_vertices(),
          folded.kernel.num_vertices(),
          static_cast<long long>(folded.kernel.num_edges()),
          folded.cover_offset);
    }
  }
  return 0;
}

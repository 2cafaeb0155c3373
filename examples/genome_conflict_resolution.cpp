// Computational-biology workflow — another domain from the paper's
// abstract. In sequence-assembly curation, pairwise conflicts between reads
// (inconsistent overlaps, suspected chimeras) form a conflict graph; the
// cheapest way to make the remaining set conflict-free is to discard a
// minimum vertex cover of that graph.
//
// This example shows the preprocessing a production user would run before
// the exact search: Nemhauser–Trotter kernelization (the LP forces most
// reads in or out), then the Hybrid solver on the surviving kernel.
//
//   ./genome_conflict_resolution [--reads 450] [--conflict-rate 2.1]

#include <cstdio>

#include "graph/builder.hpp"
#include "graph/stats.hpp"
#include "parallel/solver.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "vc/kernelization.hpp"

int main(int argc, char** argv) {
  using namespace gvc;
  util::Args args(argc, argv);
  const auto reads = static_cast<graph::Vertex>(args.get_int("reads", 450));
  const double rate = args.get_double("conflict-rate", 2.1);

  // Synthetic conflict graph: reads tile a genome; conflicts are local
  // (between reads covering nearby loci) with occasional long-range
  // repeat-induced conflicts — structurally a sparse graph with clustered
  // edges, the regime assembly conflict graphs live in.
  util::Pcg32 rng(777);
  graph::GraphBuilder b(reads);
  const auto conflicts = static_cast<std::int64_t>(rate * reads);
  for (std::int64_t i = 0; i < conflicts; ++i) {
    auto u = static_cast<graph::Vertex>(rng.below(static_cast<std::uint32_t>(reads)));
    graph::Vertex v;
    if (rng.chance(0.9)) {  // local conflict within a window of 12
      auto lo = std::max<graph::Vertex>(0, u - 6);
      auto hi = std::min<graph::Vertex>(reads - 1, u + 6);
      v = static_cast<graph::Vertex>(
          lo + rng.below(static_cast<std::uint32_t>(hi - lo + 1)));
    } else {  // repeat-induced long-range conflict
      v = static_cast<graph::Vertex>(rng.below(static_cast<std::uint32_t>(reads)));
    }
    if (u != v) b.add_edge(u, v);
  }
  graph::CsrGraph g = b.build();
  std::printf("conflict graph: %s\n\n",
              graph::compute_stats(g).to_string().c_str());

  // Stage 1: LP kernelization. The forced sets resolve most reads outright.
  vc::NtKernel nt = vc::nemhauser_trotter(g);
  std::printf("kernelization: %zu reads forced-discard, %zu forced-keep, "
              "%d in the kernel (LP lower bound %d)\n",
              nt.in_cover.size(), nt.excluded.size(),
              nt.kernel.num_vertices(), nt.lp_lower_bound);

  // Stage 2: Hybrid-solve the kernel (nothing to search if it has no edges).
  parallel::ParallelResult kernel_solution;
  if (nt.kernel.num_edges() > 0)
    kernel_solution = parallel::solve(nt.kernel, parallel::Method::kHybrid,
                                      parallel::ParallelConfig{});

  auto discard = vc::lift_cover(nt, kernel_solution.cover);
  std::printf("\ndiscard %zu of %d reads to resolve all conflicts "
              "(%llu search-tree nodes in the kernel)\n",
              discard.size(), reads,
              static_cast<unsigned long long>(kernel_solution.tree_nodes));

  // Verify: surviving reads are conflict-free.
  std::vector<bool> discarded(static_cast<std::size_t>(reads), false);
  for (auto v : discard) discarded[static_cast<std::size_t>(v)] = true;
  for (graph::Vertex v = 0; v < reads; ++v) {
    if (discarded[static_cast<std::size_t>(v)]) continue;
    for (graph::Vertex u : g.neighbors(v)) {
      if (!discarded[static_cast<std::size_t>(u)]) {
        std::fprintf(stderr, "BUG: reads %d and %d still conflict\n", v, u);
        return 1;
      }
    }
  }
  std::printf("verified: surviving reads are pairwise conflict-free\n");
  return 0;
}

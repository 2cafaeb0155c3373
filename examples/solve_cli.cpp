// General-purpose solver front end: load a graph file (DIMACS / METIS /
// MatrixMarket / edge list), or generate an instance, and solve MVC or PVC
// with any of the five methods.
//
//   ./solve_cli --graph path/to/file.col [--method hybrid] [--problem mvc]
//   ./solve_cli --instance p_hat_300_1 --scale smoke --method stackonly
//   ./solve_cli --graph g.col --problem pvc --k 25
//
// Options:
//   --method     sequential | stackonly | hybrid | globalonly | workstealing
//                (default hybrid)
//   --problem    mvc | pvc                              (default mvc)
//   --k          PVC parameter (required for pvc)
//   --complement solve on the edge complement (DIMACS clique instances)
//   --max-nodes / --max-seconds   search budget
//   --verbose    print the launch plan and per-SM load

#include <cstdio>

#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "graph/stats.hpp"
#include "harness/catalog.hpp"
#include "parallel/solver.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace gvc;
  util::Args args(argc, argv);

  auto usage = [] {
    std::fprintf(stderr, "usage: solve_cli --graph FILE | --instance NAME "
                         "[--method hybrid] [--problem mvc|pvc --k K]\n");
    return 2;
  };
  const std::optional<parallel::Method> method =
      parallel::try_parse_method(args.get("method", "hybrid"));
  if (!method.has_value()) return usage();

  graph::CsrGraph g;
  if (args.has("graph")) {
    g = graph::load_graph(args.get("graph"));
  } else if (args.has("instance")) {
    auto cat = harness::paper_catalog(
        harness::parse_scale(args.get("scale", "default")));
    g = harness::find_instance(cat, args.get("instance")).graph();
  } else {
    return usage();
  }
  if (args.get_bool("complement", false)) g = graph::complement(g);

  std::printf("graph: %s\n", graph::compute_stats(g).to_string().c_str());

  parallel::ParallelConfig config;
  std::string problem = util::to_lower(args.get("problem", "mvc"));
  if (problem == "pvc") {
    config.problem = vc::Problem::kPvc;
    config.k = static_cast<int>(args.get_int("k", 0));
    if (config.k <= 0) {
      std::fprintf(stderr, "--problem pvc requires --k > 0\n");
      return 2;
    }
  } else if (problem != "mvc") {
    std::fprintf(stderr, "unknown --problem (want mvc|pvc)\n");
    return 2;
  }
  vc::SolveControl control;
  control.limits.max_tree_nodes =
      static_cast<std::uint64_t>(args.get_int("max-nodes", 0));
  control.limits.time_limit_s = args.get_double("max-seconds", 0.0);

  auto r = parallel::solve(g, *method, config, &control);

  if (args.get_bool("verbose", false) &&
      *method != parallel::Method::kSequential) {
    std::printf("launch plan: %s\n", r.plan.to_string().c_str());
    auto load = r.launch.load_per_sm_normalized();
    std::printf("per-SM load (normalized):");
    for (double x : load) std::printf(" %.2f", x);
    std::printf("\n");
  }

  if (r.limit_hit()) {
    std::printf("result: %s after %llu tree nodes (%.3fs); "
                "best cover so far: %d\n",
                vc::to_string(r.outcome),
                static_cast<unsigned long long>(r.tree_nodes), r.seconds,
                r.best_size);
    return 3;
  }
  if (config.problem == vc::Problem::kMvc) {
    std::printf("minimum vertex cover: %d vertices "
                "(%llu tree nodes, %.3fs, greedy bound %d)\n",
                r.best_size, static_cast<unsigned long long>(r.tree_nodes),
                r.seconds, r.greedy_upper_bound);
  } else {
    std::printf("PVC(k=%d): %s (%llu tree nodes, %.3fs)\n", config.k,
                r.has_cover() ? "cover exists" : "no cover of that size",
                static_cast<unsigned long long>(r.tree_nodes), r.seconds);
  }
  if (r.has_cover() && !graph::is_vertex_cover(g, r.cover)) {
    std::fprintf(stderr, "BUG: invalid cover\n");
    return 1;
  }
  return 0;
}

// Micro-benchmarks (google-benchmark) for the per-node kernel work of
// Fig. 6: the three reduction rules (serial vs parallel-sweep semantics),
// finding the maximum-degree vertex, and the two branch-removal operations.

#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/degree_array.hpp"
#include "vc/greedy.hpp"
#include "vc/reductions.hpp"

namespace {

using namespace gvc;

graph::CsrGraph bench_graph(int kind, graph::Vertex n) {
  switch (kind) {
    case 0: return graph::complement(graph::p_hat(n, 0.3, 0.7, 5));  // dense
    case 1: return graph::power_grid(n, 0.4, 5);                     // sparse
    default: return graph::barabasi_albert(n, 4, 5);                 // hubs
  }
}

vc::ReduceSemantics semantics_arg(std::int64_t i) {
  switch (i) {
    case 0: return vc::ReduceSemantics::kSerial;
    case 1: return vc::ReduceSemantics::kParallelSweep;
    default: return vc::ReduceSemantics::kIncremental;
  }
}

const char* semantics_label(std::int64_t i) {
  switch (i) {
    case 0: return "serial";
    case 1: return "sweep";
    default: return "incremental";
  }
}

void BM_Reduce_FullFixpoint(benchmark::State& state) {
  auto g = bench_graph(static_cast<int>(state.range(0)),
                       static_cast<graph::Vertex>(state.range(1)));
  auto semantics = semantics_arg(state.range(2));
  int bound = vc::greedy_mvc(g).size;
  vc::ReduceWorkspace ws;
  for (auto _ : state) {
    vc::DegreeArray da(g);
    auto stats = vc::reduce(g, da, vc::BudgetPolicy::mvc(bound), semantics,
                            {}, nullptr, &ws);
    benchmark::DoNotOptimize(stats);
  }
  state.SetLabel(semantics_label(state.range(2)));
}
BENCHMARK(BM_Reduce_FullFixpoint)
    ->ArgsProduct({{0, 1, 2}, {200, 800}, {0, 1, 2}});

// The solver hot path the incremental engine targets: a node that already
// reached its reduction fixpoint branches, and the CHILD is reduced. The
// serial variant rescans all |V| per round; the incremental variant seeds
// from the handful of vertices the branch mutation dirtied.
void BM_Reduce_ChildAfterBranch(benchmark::State& state) {
  auto g = bench_graph(static_cast<int>(state.range(0)),
                       static_cast<graph::Vertex>(state.range(1)));
  auto semantics = semantics_arg(state.range(2));
  int bound = vc::greedy_mvc(g).size;
  vc::ReduceWorkspace ws;
  // Parent at fixpoint under the measured semantics (for the incremental
  // arm this also arms the dirty log), then the vmax branch applied — the
  // child state to reduce.
  vc::DegreeArray parent(g);
  vc::reduce(g, parent, vc::BudgetPolicy::mvc(bound), semantics, {}, nullptr,
             &ws);
  graph::Vertex vmax = parent.max_degree_vertex();
  if (vmax < 0 || parent.degree(vmax) < 1) {
    state.SkipWithError("instance fully reduced before branching");
    return;
  }
  vc::DegreeArray child_template = parent;
  child_template.remove_into_solution(g, vmax);
  vc::DegreeArray child;
  for (auto _ : state) {
    child = child_template;  // same copy cost in every arm
    auto stats = vc::reduce(g, child, vc::BudgetPolicy::mvc(bound), semantics,
                            {}, nullptr, &ws);
    benchmark::DoNotOptimize(stats);
  }
  state.SetLabel(semantics_label(state.range(2)));
}
BENCHMARK(BM_Reduce_ChildAfterBranch)
    ->ArgsProduct({{0, 1, 2}, {800, 3200}, {0, 1, 2}});

void BM_Rule_DegreeOne(benchmark::State& state) {
  auto g = graph::power_grid(static_cast<graph::Vertex>(state.range(0)), 0.3, 7);
  for (auto _ : state) {
    vc::DegreeArray da(g);
    benchmark::DoNotOptimize(
        vc::apply_degree_one(g, da, vc::ReduceSemantics::kParallelSweep));
  }
}
BENCHMARK(BM_Rule_DegreeOne)->Arg(500)->Arg(2000);

void BM_Rule_DegreeTwoTriangle(benchmark::State& state) {
  auto g = graph::watts_strogatz(static_cast<graph::Vertex>(state.range(0)), 3,
                                 0.1, 7);
  for (auto _ : state) {
    vc::DegreeArray da(g);
    benchmark::DoNotOptimize(vc::apply_degree_two_triangle(
        g, da, vc::ReduceSemantics::kParallelSweep));
  }
}
BENCHMARK(BM_Rule_DegreeTwoTriangle)->Arg(500)->Arg(2000);

void BM_Rule_HighDegree(benchmark::State& state) {
  auto g = graph::barabasi_albert(static_cast<graph::Vertex>(state.range(0)),
                                  5, 7);
  for (auto _ : state) {
    vc::DegreeArray da(g);
    benchmark::DoNotOptimize(vc::apply_high_degree(
        g, da, vc::BudgetPolicy::mvc(g.num_vertices() / 4),
        vc::ReduceSemantics::kParallelSweep));
  }
}
BENCHMARK(BM_Rule_HighDegree)->Arg(500)->Arg(2000);

void BM_FindMaxDegree(benchmark::State& state) {
  auto g = bench_graph(0, static_cast<graph::Vertex>(state.range(0)));
  vc::DegreeArray da(g);
  for (auto _ : state) benchmark::DoNotOptimize(da.max_degree_vertex());
}
BENCHMARK(BM_FindMaxDegree)->Arg(200)->Arg(800)->Arg(3200);

void BM_RemoveMaxVertex(benchmark::State& state) {
  auto g = bench_graph(0, static_cast<graph::Vertex>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    vc::DegreeArray da(g);
    graph::Vertex v = da.max_degree_vertex();
    state.ResumeTiming();
    da.remove_into_solution(g, v);
  }
}
BENCHMARK(BM_RemoveMaxVertex)->Arg(200)->Arg(800);

void BM_RemoveNeighbors(benchmark::State& state) {
  auto g = bench_graph(0, static_cast<graph::Vertex>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    vc::DegreeArray da(g);
    graph::Vertex v = da.max_degree_vertex();
    state.ResumeTiming();
    benchmark::DoNotOptimize(da.remove_neighbors_into_solution(g, v));
  }
}
BENCHMARK(BM_RemoveNeighbors)->Arg(200)->Arg(800);

void BM_GreedyUpperBound(benchmark::State& state) {
  auto g = bench_graph(static_cast<int>(state.range(0)), 400);
  for (auto _ : state) benchmark::DoNotOptimize(vc::greedy_mvc(g));
}
BENCHMARK(BM_GreedyUpperBound)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();

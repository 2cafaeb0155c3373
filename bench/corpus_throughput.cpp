// corpus_throughput — graphs/second on a stream-of-graphs workload (plain
// main, like micro_obs_overhead: this one is a CI acceptance gate for the
// corpus PR and must not depend on google-benchmark).
//
// The workload the batch path exists for: many thousands of small
// instances arriving as one gspan stream. Four modes over the SAME
// corpus, differential-checked against each other:
//
//   naive    one parallel::solve(kHybrid) call per record — the pre-PR
//            corpus loop: the flagship method launches a VirtualDevice
//            per instance, so every tiny graph pays a full launch. This
//            is the baseline the batch path amortizes.
//   loopseq  one parallel::solve(kSequential) call per record, reused
//            workspace — the single-threaded floor with no launch
//            machinery at all.
//   batch    parallel::solve_batch over chunks of --chunk records: one
//            pooled launch per chunk, one block per graph, per-slot
//            scratch reuse.
//   service  SolveService::submit_batch with --workers workers — the full
//            front-end path (chunking, sharding, backpressure) the
//            gvc_solve --corpus flag uses; stream parsing is on its
//            clock.
//
// Covers must be BIT-identical across loopseq/batch/service (same cover
// vector, same tree shape; the batch engine IS the sequential engine),
// and the naive mode's optima must agree — the bench aborts otherwise,
// so a throughput number can never be quoted for a path that diverged.
//
//   corpus_throughput [--graphs N] [--chunk N] [--workers N] [--seed S]
//                     [--out FILE]
//
// --out writes a machine-readable summary (perfbench/README.md maps its
// retired capture, BENCH_PR9.json, to the ladder's corpus_stream rows).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/corpus.hpp"
#include "graph/generators.hpp"
#include "parallel/batch.hpp"
#include "parallel/solver.hpp"
#include "service/solve_service.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace {

using namespace gvc;

struct ModeResult {
  const char* name;
  double wall_s = 0.0;
  std::vector<vc::SolveResult> results;

  double graphs_per_s(std::size_t n) const {
    return wall_s > 0.0 ? static_cast<double>(n) / wall_s : 0.0;
  }
};

/// The corpus as the reader would hand it out, pre-parsed once so every
/// mode times solving, not parsing.
std::vector<graph::CsrGraph> read_all(const std::string& corpus) {
  std::istringstream in(corpus);
  graph::CorpusReader reader(in);
  std::vector<graph::CsrGraph> graphs;
  while (auto rec = reader.next()) graphs.push_back(std::move(rec->graph));
  GVC_CHECK_MSG(reader.skips().empty(), "generated corpus must be clean");
  return graphs;
}

void check_identical(const ModeResult& a, const ModeResult& b) {
  GVC_CHECK_MSG(a.results.size() == b.results.size(),
                "differential: result counts diverged");
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const vc::SolveResult& x = a.results[i];
    const vc::SolveResult& y = b.results[i];
    GVC_CHECK_MSG(x.outcome == y.outcome && x.best_size == y.best_size &&
                      x.cover == y.cover && x.tree_nodes == y.tree_nodes,
                  "differential: per-graph records diverged between modes");
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const long long num_graphs = args.get_int("graphs", 10000);
  const std::size_t chunk =
      static_cast<std::size_t>(args.get_int("chunk", 256));
  const int workers = static_cast<int>(args.get_int("workers", 4));
  const unsigned seed = static_cast<unsigned>(args.get_int("seed", 20220531));
  const std::string out_path = args.get("out", "");

  // Small instances (8..20 vertices, varying density): the regime where
  // per-solve launch overhead dominates and batching pays.
  std::ostringstream corpus_out;
  for (long long i = 0; i < num_graphs; ++i) {
    const int n = 8 + static_cast<int>(i % 13);
    const double p = 0.2 + 0.05 * static_cast<double>(i % 7);
    graph::write_gspan(corpus_out,
                       graph::gnp(n, p, seed + static_cast<unsigned>(i)),
                       std::to_string(i));
  }
  const std::string corpus = corpus_out.str();
  const std::vector<graph::CsrGraph> graphs = read_all(corpus);
  const std::size_t total = graphs.size();
  std::printf("corpus: %zu graphs, %zu bytes serialized\n", total,
              corpus.size());

  parallel::ParallelConfig config;

  // Mode 1: the naive pre-PR loop — the default (Hybrid) solver once per
  // record, one VirtualDevice launch per instance.
  ModeResult naive{"naive"};
  {
    parallel::SolveWorkspace ws;
    naive.results.reserve(total);
    util::WallTimer t;
    for (const auto& g : graphs) {
      parallel::ParallelResult r = parallel::solve(
          g, parallel::Method::kHybrid, config, nullptr, &ws);
      naive.results.push_back(std::move(r));
    }
    naive.wall_s = t.seconds();
  }

  // Mode 2: the launch-free single-threaded floor.
  ModeResult loopseq{"loopseq"};
  {
    parallel::SolveWorkspace ws;
    loopseq.results.reserve(total);
    util::WallTimer t;
    for (const auto& g : graphs) {
      parallel::ParallelResult r = parallel::solve(
          g, parallel::Method::kSequential, config, nullptr, &ws);
      loopseq.results.push_back(std::move(r));
    }
    loopseq.wall_s = t.seconds();
  }

  // Mode 3: chunked solve_batch (one pooled launch per chunk).
  ModeResult batch{"batch"};
  {
    parallel::SolveWorkspace ws;
    batch.results.reserve(total);
    util::WallTimer t;
    for (std::size_t lo = 0; lo < total; lo += chunk) {
      const std::size_t hi = std::min(lo + chunk, total);
      std::vector<const graph::CsrGraph*> views;
      views.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) views.push_back(&graphs[i]);
      parallel::BatchResult r =
          parallel::solve_batch(views, config, nullptr, &ws);
      for (auto& rec : r.results) batch.results.push_back(std::move(rec));
    }
    batch.wall_s = t.seconds();
  }

  // Mode 4: the service front-end, re-reading the stream like the CLI does
  // (parse is on this mode's clock — the realistic end-to-end number).
  ModeResult service_mode{"service"};
  {
    service::ServiceOptions sopts;
    sopts.num_workers = workers;
    sopts.corpus_chunk_size = chunk;
    sopts.partition_device = false;  // bit-identity with the direct modes
    service::SolveService svc(sopts);
    std::istringstream in(corpus);
    graph::CorpusReader reader(in);
    service_mode.results.reserve(total);
    util::WallTimer t;
    service::CorpusSubmission sub = svc.submit_batch(reader);
    for (const auto& ticket : sub.tickets) {
      svc.wait(ticket);
      for (const auto& rec : ticket.state->batch_results())
        service_mode.results.push_back(rec);
    }
    service_mode.wall_s = t.seconds();
    GVC_CHECK_MSG(sub.graphs_submitted == static_cast<long long>(total),
                  "service mode lost records");
  }

  check_identical(loopseq, batch);
  check_identical(loopseq, service_mode);
  // Hybrid explores a different (equally exact) tree: optima must agree.
  GVC_CHECK_MSG(naive.results.size() == batch.results.size(),
                "differential: result counts diverged");
  for (std::size_t i = 0; i < total; ++i)
    GVC_CHECK_MSG(naive.results[i].best_size == batch.results[i].best_size,
                  "differential: naive optimum diverged from batch");

  const ModeResult* modes[] = {&naive, &loopseq, &batch, &service_mode};
  for (const ModeResult* m : modes)
    std::printf("  %-8s %8.3f s   %9.0f graphs/s\n", m->name, m->wall_s,
                m->graphs_per_s(total));
  const double batch_speedup = naive.wall_s / batch.wall_s;
  const double service_speedup = naive.wall_s / service_mode.wall_s;
  std::printf("batch speedup %.2fx, service speedup %.2fx over the naive "
              "per-instance-launch loop (covers bit-identical)\n",
              batch_speedup, service_speedup);

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    GVC_CHECK_MSG(os.good(), "cannot write --out file");
    os << "{\n"
       << "  \"bench\": \"corpus_throughput\",\n"
       << "  \"graphs\": " << total << ",\n"
       << "  \"chunk\": " << chunk << ",\n"
       << "  \"workers\": " << workers << ",\n"
       << "  \"corpus_bytes\": " << corpus.size() << ",\n";
    for (const ModeResult* m : modes)
      os << "  \"" << m->name << "\": {\"wall_seconds\": " << m->wall_s
         << ", \"graphs_per_s\": " << m->graphs_per_s(total) << "},\n";
    os << "  \"batch_speedup\": " << batch_speedup << ",\n"
       << "  \"service_speedup\": " << service_speedup << ",\n"
       << "  \"bit_identical\": true\n"
       << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

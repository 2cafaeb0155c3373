// gvc_solve — command-line exact vertex cover solver.
//
//   gvc_solve GRAPH [options]
//
// GRAPH is any supported format (DIMACS .col/.clq, METIS .graph, PACE .gr,
// MatrixMarket .mtx, or a plain edge list). Options:
//
//   --method M           sequential|stackonly|hybrid|globalonly|workstealing
//                        (default hybrid — the paper's contribution)
//   --problem mvc|pvc    formulation (default mvc)
//   --k N                PVC bound (required for --problem pvc)
//   --branch S           maxdegree|mindegree|random|first (default maxdegree)
//   --branch-state S     undotrail|copy (default undotrail — O(changed)
//                        apply/undo backtracking; copy is the paper's
//                        copy-on-branch design; both produce the same tree;
//                        globalonly and workstealing ignore it)
//   --grid N             force the grid size (default: occupancy plan)
//   --block-size N       force the block size in the §IV-E plan
//   --worklist-capacity N   Hybrid/GlobalOnly queue entries (default 4096)
//   --worklist-threshold F  Hybrid donation threshold fraction (default 0.5)
//   --start-depth D      StackOnly sub-tree starting depth (default 6)
//   --time-limit S       abort after S seconds (0 = none)
//   --node-limit N       abort after N tree nodes (0 = none)
//   --deadline-ms M      absolute deadline M milliseconds from launch —
//                        unlike --time-limit it also burns load/setup time
//                        (0 = none)
//   --kernelize          fold degree ≤ 2 structures first (host-side
//                        preprocessing; see src/vc/folding.hpp); PVC
//                        solves the kernel with k minus the folded cover
//   --solution PATH      write the cover in PACE "s vc" format
//   --quiet              print only the cover size
//
// Corpus mode — solve a stream of graphs instead of one file:
//
//   gvc_solve --corpus FILE [--corpus-format auto|gspan|dimacs|edgelist]
//             [--chunk N] [--workers N] [solver flags] [--quiet]
//
// FILE holds many graph records (gspan transactions, concatenated DIMACS,
// or blank-line-separated edge lists; autodetected by default). Records are
// streamed through SolveService::submit_batch — chunks of --chunk graphs
// (default 256) become one pooled launch each, spread over --workers
// service workers (default 4). Malformed records are skipped with a
// per-record diagnostic, never aborting the stream; --time-limit and
// --node-limit bound each graph's search separately. Per-graph result
// lines are printed in corpus order (--quiet keeps only the summary, which
// always reports solved/skipped counts and graphs/second).
//
// Exit code: 0 on success (PVC: cover found), 1 for PVC "no cover ≤ k",
// 2 when a limit/deadline fired before the search finished, 64 for usage
// errors (unknown method names print the usage line instead of aborting),
// 65 for a malformed single-instance graph file, 66 for an unreadable
// --corpus file. Corpus mode exits 0 even when records were skipped —
// skips are per-record diagnostics, not process failures — and 2 when any
// solved record is incomplete.

#include <cstdio>
#include <fstream>

#include "cli_common.hpp"
#include "graph/corpus.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "graph/stats.hpp"
#include "parallel/solver.hpp"
#include "service/solve_service.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "vc/folding.hpp"

namespace {

using namespace gvc;

std::optional<graph::CorpusFormat> parse_corpus_format(
    const std::string& name) {
  if (name == "auto") return graph::CorpusFormat::kAuto;
  if (name == "gspan") return graph::CorpusFormat::kGspan;
  if (name == "dimacs") return graph::CorpusFormat::kDimacs;
  if (name == "edgelist") return graph::CorpusFormat::kEdgeList;
  std::fprintf(stderr, "unknown --corpus-format '%s' "
                       "(auto|gspan|dimacs|edgelist)\n", name.c_str());
  return std::nullopt;
}

int run_corpus(util::Args& args, const parallel::ParallelConfig& config,
               const vc::Limits& limits, bool quiet) {
  const std::string path = args.get("corpus");
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open corpus file: %s\n", path.c_str());
    return 66;
  }
  const auto format = parse_corpus_format(args.get("corpus-format", "auto"));
  if (!format.has_value()) return 64;

  service::ServiceOptions sopts;
  sopts.num_workers = static_cast<int>(args.get_int("workers", 4));
  sopts.corpus_chunk_size =
      static_cast<std::size_t>(args.get_int("chunk", 256));
  service::SolveService svc(sopts);

  service::CorpusOptions copts;
  copts.config = config;
  copts.limits = limits;

  graph::CorpusReader reader(in, *format);
  util::WallTimer timer;
  service::CorpusSubmission sub = svc.submit_batch(reader, copts);

  // Tickets complete as workers drain; print per-graph lines in corpus
  // order (chunks were submitted in order, records within a chunk too).
  // A chunk dropped without a solve (rejected/expired) has no per-graph
  // results at all — those records were admitted but never solved, so they
  // count as incomplete rather than silently vanishing from the output.
  long long incomplete = 0;
  for (const auto& ticket : sub.tickets) {
    svc.wait(ticket);
    const auto& records = *ticket.state->spec().batch;
    const auto& results = ticket.state->batch_results();
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (i >= results.size()) {
        ++incomplete;
        if (!quiet)
          std::printf("[%lld] id=%s line=%lld: not solved (%s)\n",
                      records[i].index, records[i].id.c_str(),
                      records[i].line,
                      service::job_status_name(ticket.state->status()));
        continue;
      }
      const vc::SolveResult& r = results[i];
      if (!r.complete()) ++incomplete;
      if (quiet) continue;
      std::printf("[%lld] id=%s line=%lld: cover %d (%s, %llu nodes)\n",
                  records[i].index, records[i].id.c_str(), records[i].line,
                  r.best_size, vc::to_string(r.outcome),
                  static_cast<unsigned long long>(r.tree_nodes));
    }
  }
  const double wall = timer.seconds();

  for (const auto& skip : sub.skips)
    std::printf("[%lld] skipped at line %lld: %s\n", skip.index, skip.line,
                skip.reason.c_str());

  const service::ServiceStats stats = svc.stats();
  const double gps =
      wall > 0.0 ? static_cast<double>(stats.corpus_graphs_solved) / wall
                 : 0.0;
  std::printf("corpus %s [%s]: %llu solved, %llu skipped, %llu batches "
              "in %.3f s (%.0f graphs/s)\n",
              path.c_str(), graph::corpus_format_name(reader.format()),
              static_cast<unsigned long long>(stats.corpus_graphs_solved),
              static_cast<unsigned long long>(stats.corpus_graphs_skipped),
              static_cast<unsigned long long>(stats.corpus_batches), wall,
              gps);
  return incomplete > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gvc;
  util::Args args(argc, argv);
  graph::set_max_header_vertices(tools::kToolMaxHeaderVertices);

  if (args.positional().empty() && !args.has("corpus")) {
    std::fprintf(stderr, "usage: %s GRAPH [--method hybrid] [--problem mvc] "
                         "...  (see the header of tools/gvc_solve.cpp)\n",
                 args.program().c_str());
    return 64;
  }
  const bool quiet = args.get_bool("quiet", false);

  const std::optional<parallel::Method> method = tools::parse_method_flag(args);
  if (!method.has_value()) return 64;

  // The solver-shape flags (--problem/--k/--branch/--branch-state/...) are
  // the shared tool surface; see tools/cli_common.hpp.
  parallel::ParallelConfig config;
  if (!tools::parse_solver_flags(args, &config)) return 64;
  vc::Limits limits;
  limits.time_limit_s = args.get_double("time-limit", 0.0);
  limits.max_tree_nodes =
      static_cast<std::uint64_t>(args.get_int("node-limit", 0));

  if (args.has("corpus")) return run_corpus(args, config, limits, quiet);

  const std::string path = args.positional()[0];
  graph::IoResult<graph::CsrGraph> loaded = graph::try_load_graph(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.error().to_string().c_str());
    return 65;
  }
  if (!loaded.warning.empty())
    std::fprintf(stderr, "warning: %s\n", loaded.warning.c_str());
  graph::CsrGraph g = std::move(loaded.value());
  if (!quiet) {
    graph::GraphStats stats = graph::compute_stats(g);
    std::printf("%s: %s\n", path.c_str(), stats.to_string().c_str());
  }

  vc::SolveControl control;
  control.limits = limits;
  const double deadline_ms = args.get_double("deadline-ms", 0.0);
  if (deadline_ms > 0.0)
    control.set_deadline(vc::SolveControl::now_s() + deadline_ms * 1e-3);

  // Optional folding preprocessing: fold to a min-degree-3 kernel, solve
  // the kernel with the selected method, lift back.
  vc::FoldedKernel folded;
  const bool kernelize = args.get_bool("kernelize", false);
  const graph::CsrGraph* work = &g;
  if (kernelize) {
    folded = vc::fold_reduce(g);
    work = &folded.kernel;
    if (!quiet)
      std::printf("folded kernel: %d vertices, %lld edges "
                  "(%d cover vertices resolved by folding)\n",
                  folded.kernel.num_vertices(),
                  static_cast<long long>(folded.kernel.num_edges()),
                  folded.cover_offset);
  }

  // Folding already put cover_offset vertices in the cover, so a PVC kernel
  // gets only the rest of k. The solver rejects k <= 0, so a spent budget
  // or an edgeless kernel is answered here without a search.
  const bool pvc_kernel = kernelize && config.problem == vc::Problem::kPvc;
  parallel::ParallelConfig work_config = config;
  if (pvc_kernel) work_config.k -= folded.cover_offset;
  parallel::ParallelResult r;
  if (pvc_kernel && (work_config.k <= 0 || work->num_edges() == 0)) {
    if (work_config.k >= 0 && work->num_edges() == 0)
      r.best_size = 0;  // the empty kernel cover
    else
      r.outcome = vc::Outcome::kInfeasible;
  } else {
    r = parallel::solve(*work, *method, work_config, &control);
  }

  std::vector<graph::Vertex> cover =
      kernelize ? folded.lift(r.cover) : r.cover;

  if (config.problem == vc::Problem::kPvc && !r.has_cover()) {
    if (quiet)
      std::printf("no\n");
    else
      std::printf("no vertex cover of size <= %d exists%s\n", config.k,
                  r.complete()
                      ? ""
                      : util::format(" (unproven: %s)",
                                     vc::to_string(r.outcome)).c_str());
    return r.complete() ? 1 : 2;
  }

  GVC_CHECK_MSG(graph::is_vertex_cover(g, cover),
                "internal error: produced set is not a cover");

  if (quiet) {
    std::printf("%zu\n", cover.size());
  } else {
    std::printf("%s cover of size %zu found by %s in %.3f s "
                "(simulated parallel %.4f s, %llu tree nodes)%s\n",
                config.problem == vc::Problem::kMvc ? "minimum" : "valid",
                cover.size(), parallel::method_name(*method), r.seconds,
                r.sim_seconds,
                static_cast<unsigned long long>(r.tree_nodes),
                r.complete() ? ""
                             : util::format(" [%s: optimality unproven]",
                                            vc::to_string(r.outcome))
                                   .c_str());
  }

  if (args.has("solution")) {
    std::ofstream out(args.get("solution"));
    GVC_CHECK_MSG(out.good(), "cannot open solution file");
    graph::write_pace_solution(out, g.num_vertices(), cover);
    if (!quiet)
      std::printf("solution written to %s\n", args.get("solution").c_str());
  }
  return r.complete() ? 0 : 2;
}

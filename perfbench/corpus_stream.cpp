// corpus_stream — a seeded gspan stream of tiny-to-small graphs (8-40
// vertices, varied density) parsed by graph::CorpusReader and solved
// through SolveService::submit_batch, pass after pass. Parse, batch launch
// and queue overhead dominate; the worklist/ and Hybrid paths are bypassed
// (batch blocks run the Sequential engine).
//
// One operation is one graph. ops_per_s is graphs parsed + solved per wall
// second; the latencies are per pass, the time to answer the whole stream
// (submit_batch over a fresh reader until every chunk's records are in).
// Per-chunk latency is the service's own e2e stamp (service.e2e_ms_* in the
// traced run): with one worker and a reader that can run ahead, a chunk's
// latency is mostly the backlog in front of it, which swung by 2x between
// runs. Every pass's per-graph records must be bit-identical to a direct
// parallel::solve_batch over the pre-parsed chunks.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/corpus.hpp"
#include "graph/generators.hpp"
#include "parallel/batch.hpp"
#include "service/solve_service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using gvc::graph::CsrGraph;

constexpr int kGraphs = 20000;
constexpr std::size_t kChunk = 256;  ///< the service default chunk size

/// The corpus text: kGraphs gspan records, G(n, p) with n in [8, 40] and
/// p in [0.08, 0.5].
std::string make_corpus(std::uint64_t seed, int graphs) {
  gvc::util::Pcg32 rng(sub_seed(seed, 0xC0));
  std::ostringstream out;
  for (int i = 0; i < graphs; ++i) {
    const auto n = static_cast<gvc::graph::Vertex>(rng.range(8, 40));
    const double p = 0.08 + 0.42 * rng.real();
    gvc::graph::write_gspan(
        out, gvc::graph::gnp(n, p, sub_seed(seed, static_cast<std::uint64_t>(i))),
        std::to_string(i));
  }
  return out.str();
}

std::vector<CsrGraph> parse_all(const std::string& text, Report& report) {
  std::istringstream in(text);
  gvc::graph::CorpusReader reader(in);
  std::vector<CsrGraph> graphs;
  while (auto rec = reader.next()) graphs.push_back(std::move(rec->graph));
  report.invariant(reader.skips().empty(), "generated corpus has skips");
  return graphs;
}

/// The direct phase: parallel::solve_batch over pre-parsed chunks.
struct DirectBatch {
  std::vector<gvc::vc::SolveResult> results;
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t busy_ns = 0;
};

DirectBatch direct_batch(const std::vector<CsrGraph>& graphs,
                         const gvc::parallel::ParallelConfig& config) {
  DirectBatch out;
  gvc::parallel::SolveWorkspace workspace;
  const double t0 = now_s();
  for (std::size_t lo = 0; lo < graphs.size(); lo += kChunk) {
    std::vector<const CsrGraph*> views;
    for (std::size_t i = lo; i < std::min(lo + kChunk, graphs.size()); ++i)
      views.push_back(&graphs[i]);
    trace::Span span("parallel.solve_batch");
    gvc::parallel::BatchResult r =
        gvc::parallel::solve_batch(views, config, nullptr, &workspace);
    out.sim_s += r.sim_seconds;
    out.busy_ns += busy_ns(r.launch);
    for (auto& rec : r.results) out.results.push_back(std::move(rec));
  }
  out.wall_s = now_s() - t0;
  return out;
}

bool same_record(const gvc::vc::SolveResult& a, const gvc::vc::SolveResult& b) {
  return a.outcome == b.outcome && a.best_size == b.best_size &&
         a.cover == b.cover && a.tree_nodes == b.tree_nodes;
}

struct Measurement {
  int passes = 0;
  std::uint64_t graphs = 0;
  double wall_s = 0.0;
  std::vector<double> pass_ms;

  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(graphs) / wall_s : 0.0;
  }
};

/// Passes of the stream through the service until `seconds` have passed;
/// each pass's records are compared with the direct phase after its clock
/// stops.
Measurement measure(gvc::service::SolveService& service,
                    const std::string& text,
                    const std::vector<gvc::vc::SolveResult>& reference,
                    double seconds, Report& report) {
  Measurement out;
  const double start = now_s();
  while (now_s() - start < seconds) {
    trace::Span pass_span("bench.pass");
    std::istringstream in(text);
    gvc::graph::CorpusReader reader(in);
    const double t0 = now_s();
    gvc::service::CorpusSubmission sub;
    {
      trace::Span span("service.submit_batch");
      sub = service.submit_batch(reader);
    }
    for (const auto& ticket : sub.tickets) {
      trace::Span span("service.wait");
      service.wait(ticket);
    }
    out.wall_s += now_s() - t0;
    out.pass_ms.push_back((now_s() - t0) * 1e3);
    ++out.passes;

    trace::Span check_span("bench.check");
    std::size_t index = 0;
    for (const auto& ticket : sub.tickets) {
      for (const auto& rec : ticket.state->batch_results()) {
        report.check(index < reference.size() && same_record(rec, reference[index]),
                     "corpus graph " + std::to_string(index) +
                         " differs from the direct solve_batch record");
        ++index;
      }
    }
    report.check(index == reference.size() && sub.skips.empty(),
                 "corpus pass delivered " + std::to_string(index) + " of " +
                     std::to_string(reference.size()) + " records");
    out.graphs += index;
  }
  return out;
}

}  // namespace

int run_corpus_stream(const RunOptions& opts, Report& report) {
  const std::string text = make_corpus(opts.seed, kGraphs);
  print_fingerprint(opts, kGraphs, hash_bytes(kFnvBasis, text.data(), text.size()));
  if (opts.fingerprint_only) return 0;

  // ---- the direct phase: reference records on one worker's slice ----------
  gvc::parallel::ParallelConfig config;
  config.device = service_device();
  const std::vector<CsrGraph> graphs = parse_all(text, report);
  const DirectBatch reference = direct_batch(graphs, config);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& r = reference.results[i];
    report.check(r.outcome == gvc::vc::Outcome::kOptimal &&
                     is_cover(graphs[i], r.cover, r.best_size),
                 "direct solve_batch record " + std::to_string(i));
  }

  // ---- set-up: the service and one warm-up batch ----------------------------
  const std::string warm = make_corpus(0xC0FFEE, 512);
  std::unique_ptr<gvc::service::SolveService> service;
  const double setup_s = median_setup_seconds([&] {
    service.reset();
    gvc::service::ServiceOptions sopts;
    sopts.num_workers = kServiceWorkers;
    sopts.device = service_device();
    sopts.corpus_chunk_size = kChunk;
    service = std::make_unique<gvc::service::SolveService>(sopts);
    std::istringstream in(warm);
    gvc::graph::CorpusReader reader(in);
    for (const auto& ticket : service->submit_batch(reader).tickets)
      service->wait(ticket);
  });

  const double run_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Measurement base =
      measure(*service, text, reference.results, run_s, report);
  std::printf("corpus_stream: %d passes of %d graphs (%zu bytes), %.0f "
              "graphs/s; pass p50 %.3f ms p90 %.3f ms\n",
              base.passes, kGraphs, text.size(), base.ops_per_s(),
              quantile(base.pass_ms, 0.5), quantile(base.pass_ms, 0.9));
  report.e2e("setup_s", setup_s, "s");
  report.e2e("ops_per_s", base.ops_per_s(), "1/s");
  report.e2e("latency_p50_ms", quantile(base.pass_ms, 0.50), "ms");
  report.e2e("latency_p90_ms", quantile(base.pass_ms, 0.90), "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (!opts.trace) return 0;

  // ---- traced half -----------------------------------------------------------
  const gvc::service::ServiceStats before = service->stats();
  const double t0 = now_s();
  trace::enable(true);
  const Measurement traced =
      measure(*service, text, reference.results, run_s, report);
  const double traced_wall = now_s() - t0;
  const gvc::service::ServiceStats after = service->stats();
  const DirectBatch direct = direct_batch(graphs, config);
  const auto [parse_gps, parse_mbps] = time_corpus_parse(text, 0.3);
  trace::enable(false);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    report.check(same_record(direct.results[i], reference.results[i]),
                 "direct solve_batch repeat differs at record " +
                     std::to_string(i));

  std::uint64_t nodes = 0;
  for (const auto& r : direct.results) nodes += r.tree_nodes;
  report.layer("vc.seq_tree_nodes", static_cast<double>(nodes), "count");
  report.layer("vc.seq_nodes_per_s",
               static_cast<double>(nodes) / (static_cast<double>(direct.busy_ns) * 1e-9),
               "1/s");
  report.layer("parallel.batch.graphs_per_s",
               static_cast<double>(graphs.size()) / direct.wall_s, "1/s");
  report.layer("device.batch.sim_makespan_s", direct.sim_s, "s");
  report.layer("graph.corpus_parse_graphs_per_s", parse_gps, "1/s");
  report.layer("graph.corpus_parse_mb_per_s", parse_mbps, "MB/s");
  report.layer("service.queue_wait_ms_p50",
               hist_delta_ms(before.queue_wait, after.queue_wait, 0.50), "ms");
  report.layer("service.queue_wait_ms_p99",
               hist_delta_ms(before.queue_wait, after.queue_wait, 0.99), "ms");
  report.layer("service.solve_ms_p50",
               hist_delta_ms(before.solve_latency, after.solve_latency, 0.50), "ms");
  report.layer("service.solve_ms_p99",
               hist_delta_ms(before.solve_latency, after.solve_latency, 0.99), "ms");
  report.layer("service.e2e_ms_p50",
               hist_delta_ms(before.e2e_latency, after.e2e_latency, 0.50), "ms");
  report.layer("service.e2e_ms_p99",
               hist_delta_ms(before.e2e_latency, after.e2e_latency, 0.99), "ms");
  report.layer("service.worker_busy_frac",
               static_cast<double>(busy_phase_ns(after) - busy_phase_ns(before)) *
                   1e-9 / (traced_wall * kServiceWorkers),
               "frac");
  report.layer("service.rejected",
               static_cast<double>(after.rejected - before.rejected), "count");
  report.layer("bench.latency_p99_ms", quantile(base.pass_ms, 0.99), "ms");
  report.layer("trace.untraced_ops_per_s", base.ops_per_s(), "1/s");
  report.layer("trace.traced_ops_per_s", traced.ops_per_s(), "1/s");
  report.layer("trace.overhead_frac", base.ops_per_s() / traced.ops_per_s() - 1.0,
               "frac");
  return 0;
}

}  // namespace perfbench

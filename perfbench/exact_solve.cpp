// exact_solve — closed loop, one caller: a seeded mix of MVC instances from
// the catalog families, each solved by all five methods through
// parallel::solve, pass after pass. Nearly all time is in vc/ reduce and
// branch, parallel/, worklist/ and device/; none in service/, net/ or
// corpus parsing.
//
// One operation is one parallel::solve call. ops_per_s counts solves per
// wall second over whole passes of the mix (every instance x every method,
// the study the paper reports); the latencies are per solve call. The
// per-method split, node counts, imbalance, simulated makespan and the
// worklist counters come from the ParallelResult of each call.

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "parallel/solver.hpp"

namespace perfbench {
namespace {

using gvc::graph::CsrGraph;
using gvc::parallel::Method;

CsrGraph p_hat_complement(int n, double lo, double hi, std::uint64_t seed) {
  return gvc::graph::complement(gvc::graph::p_hat(n, lo, hi, seed));
}

/// The mix: {family, instances per mix}. Sizes put each Sequential solve
/// at roughly 10-80 ms on the 4-block device; the bands hold each family's
/// Sequential tree size in a fixed range, so every seed's mix carries about
/// the same work.
std::vector<std::pair<Family, int>> mix_families() {
  return {
      {{"p_hat_1", [](std::uint64_t s) { return p_hat_complement(220, 0.10, 0.40, s); },
        5800, 6600}, 4},
      {{"p_hat_2", [](std::uint64_t s) { return p_hat_complement(150, 0.30, 0.70, s); },
        12600, 15000}, 4},
      {{"p_hat_3", [](std::uint64_t s) { return p_hat_complement(125, 0.50, 0.90, s); },
        31000, 38000}, 3},
      {{"barabasi_albert", [](std::uint64_t s) { return gvc::graph::barabasi_albert(130, 17, s); },
        29000, 36000}, 3},
      {{"watts_strogatz", [](std::uint64_t s) { return gvc::graph::watts_strogatz(88, 4, 0.15, s); },
        46000, 56000}, 3},
      {{"gnp_sparse", [](std::uint64_t s) { return gvc::graph::gnp(110, 9.0 / 109.0, s); },
        40000, 50000}, 4},
      {{"power_grid", [](std::uint64_t s) { return gvc::graph::power_grid(700, 0.33, s); }},
       3},
  };
}

/// Families interleaved round-robin, so every prefix of the mix is
/// balanced too.
std::vector<Instance> make_mix(std::uint64_t seed) {
  const auto families = mix_families();
  std::vector<Instance> mix;
  std::uint64_t drawn = 0;
  for (int round = 0;; ++round) {
    bool any = false;
    for (const auto& [family, count] : families) {
      if (round >= count) continue;
      any = true;
      mix.push_back(draw_instance(family, sub_seed(seed, drawn++)));
    }
    if (!any) break;
  }
  return mix;
}

constexpr std::array<Method, 5> kMethods = {
    Method::kSequential, Method::kStackOnly, Method::kHybrid,
    Method::kGlobalOnly, Method::kWorkStealing};
constexpr std::array<const char*, 5> kMethodKeys = {
    "sequential", "stackonly", "hybrid", "globalonly", "workstealing"};
constexpr std::array<const char*, 5> kSpanNames = {
    "parallel.solve.sequential", "parallel.solve.stackonly",
    "parallel.solve.hybrid", "parallel.solve.globalonly",
    "parallel.solve.workstealing"};

/// Everything one method's calls left behind over a measurement.
struct MethodAgg {
  std::vector<double> wall_ms;
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t busy_ns = 0;
  std::vector<double> imbalance;
  gvc::util::ActivityAccumulator activities;
  gvc::worklist::WorklistStats worklist;
};

struct Measurement {
  int passes = 0;
  std::uint64_t solves = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  std::array<MethodAgg, 5> methods;

  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(solves) / wall_s : 0.0;
  }
};

/// Whole passes over the mix until `seconds` are (about) used up: a pass
/// is not started when it would overrun by more than half a pass.
Measurement measure(const std::vector<Instance>& mix,
                    const gvc::parallel::ParallelConfig& config,
                    gvc::parallel::SolveWorkspace& workspace, double seconds,
                    Report& report) {
  Measurement out;
  const double start = now_s();
  for (;;) {
    trace::Span pass_span("bench.pass");
    const double pass_start = now_s();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const Instance& inst = mix[i];
      for (std::size_t m = 0; m < kMethods.size(); ++m) {
        const double t0 = now_s();
        gvc::parallel::ParallelResult r;
        {
          trace::Span span(kSpanNames[m]);
          r = gvc::parallel::solve(inst.graph, kMethods[m], config, nullptr,
                                   &workspace);
        }
        const double wall = now_s() - t0;
        {
          trace::Span span("bench.check");
          const bool nodes_ok =
              kMethods[m] != Method::kSequential || r.tree_nodes == inst.seq_nodes;
          report.check(r.outcome == gvc::vc::Outcome::kOptimal &&
                           r.best_size == inst.optimum &&
                           is_cover(inst.graph, r.cover, r.best_size) && nodes_ok,
                       std::string(kMethodKeys[m]) + " on " + inst.family +
                           " #" + std::to_string(i) + ": size " +
                           std::to_string(r.best_size) + " vs optimum " +
                           std::to_string(inst.optimum) +
                           (nodes_ok ? "" : ", Sequential tree size changed"));
        }
        MethodAgg& agg = out.methods[m];
        agg.wall_ms.push_back(wall * 1e3);
        agg.wall_s += wall;
        agg.sim_s += r.sim_seconds;
        agg.nodes += r.tree_nodes;
        if (kMethods[m] == Method::kSequential) {
          agg.busy_ns += static_cast<std::uint64_t>(r.seconds * 1e9);
        } else {
          agg.busy_ns += busy_ns(r.launch);
          agg.imbalance.push_back(block_imbalance(r.launch));
          agg.activities.merge(r.launch.merged_activities());
        }
        agg.worklist.adds += r.worklist.adds;
        agg.worklist.removes += r.worklist.removes;
        agg.worklist.donations_rejected_threshold +=
            r.worklist.donations_rejected_threshold;
        agg.worklist.donations_rejected_full += r.worklist.donations_rejected_full;
        agg.worklist.max_size_seen =
            std::max(agg.worklist.max_size_seen, r.worklist.max_size_seen);
        agg.worklist.steals += r.worklist.steals;
        agg.worklist.steal_attempts += r.worklist.steal_attempts;
        out.latency_ms.push_back(wall * 1e3);
        ++out.solves;
      }
    }
    ++out.passes;
    out.wall_s += now_s() - pass_start;
    const double elapsed = now_s() - start;
    if (elapsed + 0.5 * elapsed / out.passes >= seconds) break;
  }
  return out;
}

void report_layers(const std::vector<Instance>& mix, const Measurement& meas,
                   Report& report) {
  const double passes = static_cast<double>(meas.passes);
  const MethodAgg& seq = meas.methods[0];
  std::uint64_t seq_nodes = 0;
  for (const Instance& inst : mix) seq_nodes += inst.seq_nodes;
  report.layer("vc.seq_tree_nodes", static_cast<double>(seq_nodes), "count");
  report.layer("vc.seq_nodes_per_s",
               static_cast<double>(seq.nodes) / seq.wall_s, "1/s");
  const ActivityShares shares = activity_shares(meas.methods[2].activities);
  report.layer("vc.reduce_frac", shares.reduce, "frac");
  report.layer("vc.find_max_frac", shares.find_max, "frac");
  report.layer("vc.branch_frac", shares.branch, "frac");

  for (std::size_t m = 0; m < kMethods.size(); ++m) {
    const MethodAgg& agg = meas.methods[m];
    const std::string key = kMethodKeys[m];
    const std::string p = "parallel." + key + ".";
    report.layer(p + "solves_per_s",
                 static_cast<double>(agg.wall_ms.size()) / agg.wall_s, "1/s");
    report.layer(p + "solve_ms_p50", quantile(agg.wall_ms, 0.5), "ms");
    if (kMethods[m] == Method::kSequential) continue;
    report.layer(p + "tree_nodes", static_cast<double>(agg.nodes) / passes,
                 "count");
    report.layer(p + "node_inflation",
                 static_cast<double>(agg.nodes) / static_cast<double>(seq.nodes),
                 "ratio");
    report.layer(p + "nodes_per_busy_s",
                 static_cast<double>(agg.nodes) /
                     (static_cast<double>(agg.busy_ns) * 1e-9),
                 "1/s");
    const std::string d = "device." + key + ".";
    report.layer(d + "imbalance", quantile(agg.imbalance, 0.5), "ratio");
    report.layer(d + "sim_makespan_s", agg.sim_s / passes, "s");
    report.layer(d + "sim_to_wall", agg.sim_s / agg.wall_s, "ratio");
    if (kMethods[m] != Method::kStackOnly)
      report.layer("worklist." + key + ".terminate_frac",
                   activity_shares(agg.activities).terminate, "frac");
  }

  const gvc::worklist::WorklistStats& hy = meas.methods[2].worklist;
  report.layer("worklist.hybrid.adds", static_cast<double>(hy.adds) / passes,
               "count");
  report.layer("worklist.hybrid.removes",
               static_cast<double>(hy.removes) / passes, "count");
  const double rejected = static_cast<double>(hy.donations_rejected_threshold +
                                              hy.donations_rejected_full);
  report.layer("worklist.hybrid.donation_reject_frac",
               rejected / std::max(1.0, rejected + static_cast<double>(hy.adds)),
               "frac");
  report.layer("worklist.hybrid.max_size",
               static_cast<double>(hy.max_size_seen), "count");
  const gvc::worklist::WorklistStats& ws = meas.methods[4].worklist;
  report.layer("worklist.workstealing.steals",
               static_cast<double>(ws.steals) / passes, "count");
  report.layer("worklist.workstealing.steal_success_frac",
               static_cast<double>(ws.steals) /
                   std::max<double>(1.0, static_cast<double>(ws.steal_attempts)),
               "frac");
}

void print_summary(const Measurement& meas) {
  std::printf("exact_solve: %d passes, %llu solves in %.3f s\n", meas.passes,
              static_cast<unsigned long long>(meas.solves), meas.wall_s);
  std::printf("  %-13s %9s %10s %12s %12s\n", "method", "solves/s",
              "ms p50", "nodes/pass", "sim/wall");
  for (std::size_t m = 0; m < kMethods.size(); ++m) {
    const MethodAgg& agg = meas.methods[m];
    std::printf("  %-13s %9.2f %10.3f %12.0f %12.3f\n", kMethodKeys[m],
                static_cast<double>(agg.wall_ms.size()) / agg.wall_s,
                quantile(agg.wall_ms, 0.5),
                static_cast<double>(agg.nodes) / meas.passes,
                agg.sim_s / agg.wall_s);
  }
}

}  // namespace

int run_exact_solve(const RunOptions& opts, Report& report) {
  const std::vector<Instance> mix = make_mix(opts.seed);
  std::uint64_t hash = kFnvBasis;
  for (const Instance& inst : mix) hash = hash_graph(hash, inst.graph);
  print_fingerprint(opts, mix.size(), hash);
  if (opts.fingerprint_only) return 0;

  gvc::parallel::ParallelConfig config;
  config.device = bench_device();

  // Set-up: a fresh workspace warmed by one small solve per method (thread
  // start-up, first-touch of per-block scratch). The warm-up graph is fixed,
  // not drawn from the seed.
  const CsrGraph warm = p_hat_complement(110, 0.30, 0.70, 7);
  std::unique_ptr<gvc::parallel::SolveWorkspace> workspace;
  const double setup_s = median_setup_seconds([&] {
    workspace = std::make_unique<gvc::parallel::SolveWorkspace>();
    for (Method m : kMethods)
      gvc::parallel::solve(warm, m, config, nullptr, workspace.get());
  });

  const double run_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Measurement base = measure(mix, config, *workspace, run_s, report);
  print_summary(base);
  report.e2e("setup_s", setup_s, "s");
  report.e2e("ops_per_s", base.ops_per_s(), "1/s");
  report.e2e("latency_p50_ms", quantile(base.latency_ms, 0.50), "ms");
  report.e2e("latency_p90_ms", quantile(base.latency_ms, 0.90), "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (!opts.trace) return 0;

  trace::enable(true);
  const Measurement traced = measure(mix, config, *workspace, run_s, report);
  std::vector<const CsrGraph*> graphs;
  for (const Instance& inst : mix) graphs.push_back(&inst.graph);
  const auto [parse_gps, parse_mbps] = time_corpus_parse(to_gspan(graphs), 0.2);
  trace::enable(false);

  report_layers(mix, traced, report);
  report.layer("graph.corpus_parse_graphs_per_s", parse_gps, "1/s");
  report.layer("graph.corpus_parse_mb_per_s", parse_mbps, "MB/s");
  report.layer("bench.latency_p99_ms", quantile(base.latency_ms, 0.99), "ms");
  report.layer("trace.untraced_ops_per_s", base.ops_per_s(), "1/s");
  report.layer("trace.traced_ops_per_s", traced.ops_per_s(), "1/s");
  report.layer("trace.overhead_frac",
               base.ops_per_s() / traced.ops_per_s() - 1.0, "frac");
  return 0;
}

}  // namespace perfbench

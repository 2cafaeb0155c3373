// Micro-benchmark (google-benchmark) for the SolveService front-end:
// end-to-end job throughput swept over worker counts × offered cache hit
// ratios.
//
// Workload model: a batch of kJobsPerBatch submissions over a pool of
// distinct G(n, p) instances. At hit ratio H% the cache is pre-warmed with
// the instances that H% of the batch targets, so those submissions are
// served from completed entries while the rest are genuine solves — the
// steady-state shape of serving repeated traffic. The service (and its
// cache) is rebuilt outside the timed region for every measurement, so a
// "0% hits" row really is a cold service.
//
// Expected shape (the ISSUE-2 acceptance criteria):
//   * cold-cache jobs/sec grows with the worker count (jobs are
//     independent Sequential solves on separate worker threads, so this
//     tracks the host's core count — on a single-core host the cold rows
//     are necessarily flat);
//   * at 90% hits, jobs/sec is >= 5x the same worker count's cold rate
//     (measured ~9.5x on the reference host: 194 -> 1840 jobs/sec).
//
// Jobs use the Sequential method: service-level parallelism then maps 1:1
// onto host threads (one solve = one worker thread), which keeps the worker
// sweep interpretable on a host without nested oversubscription.

// A second mode, --multidevice-smoke, bypasses google-benchmark entirely:
// it drives the PR-10 multi-device sharding + steal tiers under a
// deliberately shard-skewed flood and asserts the work-conservation
// speedup (see multidevice_smoke below for the metric and why it is
// busy-makespan based, not wall-clock based).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "obs/phase.hpp"
#include "service/graph_hash.hpp"
#include "service/solve_service.hpp"
#include "util/timer.hpp"

namespace {

using namespace gvc;

// Sized so one solve costs a few milliseconds (measured ~6 ms for
// Sequential on this family at -O2): service coordination is then noise
// and the sweep measures solve throughput, which is what scales.
constexpr int kJobsPerBatch = 48;
constexpr int kWarmGraphs = 4;  ///< distinct targets of the hit traffic
constexpr graph::Vertex kGraphSize = 72;
constexpr double kDensity = 0.25;

/// The shared instance pool: kWarmGraphs hit targets followed by one
/// distinct graph per potential miss job, so a cold batch never contains a
/// duplicate — every miss is a real solve. Built once; graphs are
/// immutable.
const std::vector<std::shared_ptr<const graph::CsrGraph>>& pool() {
  static const auto* graphs = [] {
    auto* v = new std::vector<std::shared_ptr<const graph::CsrGraph>>;
    for (int i = 0; i < kWarmGraphs + kJobsPerBatch; ++i)
      v->push_back(std::make_shared<graph::CsrGraph>(graph::gnp(
          kGraphSize, kDensity, static_cast<std::uint64_t>(1000 + i))));
    return v;
  }();
  return *graphs;
}

service::JobSpec spec_for(int graph_index) {
  service::JobSpec spec;
  spec.graph = pool()[static_cast<std::size_t>(graph_index)];
  spec.method = parallel::Method::kSequential;
  return spec;
}

/// `hit_pct`% of the batch round-robins over the pre-warmed graphs; every
/// remaining job targets its own distinct graph (guaranteed miss).
std::vector<service::JobSpec> make_batch(int hit_pct) {
  const int warm_jobs = kJobsPerBatch * hit_pct / 100;
  std::vector<service::JobSpec> batch;
  batch.reserve(kJobsPerBatch);
  for (int i = 0; i < warm_jobs; ++i)
    batch.push_back(spec_for(i % kWarmGraphs));
  for (int i = warm_jobs; i < kJobsPerBatch; ++i)
    batch.push_back(spec_for(kWarmGraphs + i));
  return batch;
}

void BM_ServiceThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int hit_pct = static_cast<int>(state.range(1));

  for (auto _ : state) {
    state.PauseTiming();
    service::ServiceOptions opts;
    opts.num_workers = workers;
    auto svc = std::make_unique<service::SolveService>(opts);
    if (hit_pct > 0) {
      // Pre-warm the cache with the batch's repeat targets.
      std::vector<service::JobSpec> warmup;
      for (int i = 0; i < kWarmGraphs; ++i) warmup.push_back(spec_for(i));
      for (const auto& t : svc->submit_all(std::move(warmup))) svc->wait(t);
    }
    std::vector<service::JobSpec> batch = make_batch(hit_pct);
    state.ResumeTiming();

    std::vector<service::JobTicket> tickets =
        svc->submit_all(std::move(batch));
    for (const auto& t : tickets) benchmark::DoNotOptimize(svc->wait(t));

    state.PauseTiming();
    svc->shutdown();
    svc.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kJobsPerBatch);
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kJobsPerBatch),
      benchmark::Counter::kIsRate);
  state.counters["workers"] = workers;
  state.counters["hit_pct"] = hit_pct;
}

BENCHMARK(BM_ServiceThroughput)
    ->ArgNames({"workers", "hit_pct"})
    ->ArgsProduct({{1, 2, 4, 8}, {0, 50, 90}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// --multidevice-smoke: the PR-10 sharding acceptance gate.
//
// Workload: every job keyed to ONE shard of a 4-worker service (the worst
// skew admission hashing can produce). Baseline: one device, steal tiers
// off — only the home worker drains the shard. Candidate: two devices with
// both steal tiers on — the home worker's device sibling steals whole jobs
// (tier 1) and the other device imports subtree nodes from running solves
// (tier 2).
//
// Metric: completed jobs per BUSY-MAKESPAN second, where busy makespan is
// the maximum over workers of non-idle PhaseTable nanoseconds. That is the
// schedule length on the modeled multi-device machine. Wall clock is also
// reported but NOT asserted: on a single-core host every virtual device
// time-shares one physical core, so wall time is flat by construction and
// only the work-conservation metric can show the rebalancing (the same
// simulated-vs-wall split the solvers' sim_seconds already uses).
// ---------------------------------------------------------------------------

struct SmokeRun {
  double wall_s = 0.0;
  double makespan_s = 0.0;  ///< max over workers of non-idle phase time
  std::uint64_t completed = 0;
  std::uint64_t steal_jobs = 0;
  std::uint64_t steal_nodes = 0;
  std::vector<double> busy_s, idle_s;  ///< per worker, from the PhaseTable
  double rate() const { return static_cast<double>(completed) / makespan_s; }
};

/// Distinct instances all routing to shard 0 of `num_shards`.
std::vector<std::shared_ptr<const graph::CsrGraph>> skewed_pool(
    int count, int num_shards) {
  std::vector<std::shared_ptr<const graph::CsrGraph>> out;
  std::uint64_t seed = 1;
  while (static_cast<int>(out.size()) < count) {
    auto g = std::make_shared<graph::CsrGraph>(
        graph::gnp(kGraphSize, kDensity, 50000 + seed++));
    const service::CacheKey key =
        service::make_cache_key(*g, parallel::Method::kHybrid, {});
    if (service::SolveService::home_shard(key, num_shards) == 0)
      out.push_back(std::move(g));
  }
  return out;
}

SmokeRun run_skewed(
    const std::vector<std::shared_ptr<const graph::CsrGraph>>& graphs,
    int num_devices, service::StealTiers tiers) {
  service::ServiceOptions opts;
  opts.num_workers = 4;
  opts.num_devices = num_devices;
  opts.steal_tiers = tiers;
  service::SolveService svc(opts);

  util::WallTimer timer;
  std::vector<service::JobTicket> tickets;
  tickets.reserve(graphs.size());
  for (const auto& g : graphs) {
    service::JobSpec spec;
    spec.graph = g;
    spec.method = parallel::Method::kHybrid;  // the tier-2 exporting engine
    tickets.push_back(svc.submit(std::move(spec)));
  }
  for (const auto& t : tickets) svc.wait(t);
  SmokeRun run;
  run.wall_s = timer.seconds();
  svc.shutdown();

  const service::ServiceStats s = svc.stats();
  run.completed = s.completed;
  run.steal_jobs = s.steal_jobs;
  run.steal_nodes = s.steal_nodes;
  for (const auto& w : s.worker_phases) {
    const std::uint64_t idle_ns = w.ns[static_cast<int>(obs::Phase::kIdle)];
    run.busy_s.push_back(static_cast<double>(w.total_ns() - idle_ns) * 1e-9);
    run.idle_s.push_back(static_cast<double>(idle_ns) * 1e-9);
    run.makespan_s = std::max(run.makespan_s, run.busy_s.back());
  }
  return run;
}

void print_worker_split(const SmokeRun& run) {
  for (std::size_t w = 0; w < run.busy_s.size(); ++w)
    std::printf("      worker %zu: busy %.3fs  idle %.3fs\n", w,
                run.busy_s[w], run.idle_s[w]);
}

int multidevice_smoke(const char* json_out) {
  constexpr int kSmokeJobs = 24;
  const auto graphs = skewed_pool(kSmokeJobs, /*num_shards=*/4);

  const SmokeRun base =
      run_skewed(graphs, /*num_devices=*/1, service::StealTiers::kNone);
  const SmokeRun multi = run_skewed(graphs, /*num_devices=*/2,
                                    service::StealTiers::kJobsAndNodes);
  const double scaling = multi.rate() / base.rate();

  std::printf("multidevice smoke: %d jobs, all keyed to shard 0 of 4\n",
              kSmokeJobs);
  std::printf(
      "  1 device,  tiers off: %2llu jobs  busy-makespan %.3fs  "
      "(%.1f jobs/busy-s)  wall %.3fs\n",
      static_cast<unsigned long long>(base.completed), base.makespan_s,
      base.rate(), base.wall_s);
  print_worker_split(base);
  std::printf(
      "  2 devices, tiers on : %2llu jobs  busy-makespan %.3fs  "
      "(%.1f jobs/busy-s)  wall %.3fs  steals: %llu jobs, %llu nodes\n",
      static_cast<unsigned long long>(multi.completed), multi.makespan_s,
      multi.rate(), multi.wall_s,
      static_cast<unsigned long long>(multi.steal_jobs),
      static_cast<unsigned long long>(multi.steal_nodes));
  print_worker_split(multi);
  std::printf("  work-conservation scaling: %.2fx (gate: >= 1.5x)\n",
              scaling);

  if (json_out != nullptr) {
    std::ofstream out(json_out);
    out << "{\n"
        << "  \"bench\": \"micro_service_throughput --multidevice-smoke\",\n"
        << "  \"jobs\": " << kSmokeJobs << ",\n"
        << "  \"skew\": \"all jobs keyed to shard 0 of 4\",\n"
        << "  \"metric\": \"completed jobs per busy-makespan second "
           "(max over workers of non-idle phase time); wall seconds "
           "reported but not asserted: on a single-core host the virtual "
           "devices time-share one core, so wall time is flat by "
           "construction\",\n"
        << "  \"single_device\": {\"completed\": " << base.completed
        << ", \"busy_makespan_s\": " << base.makespan_s
        << ", \"jobs_per_busy_s\": " << base.rate()
        << ", \"wall_s\": " << base.wall_s << "},\n"
        << "  \"two_devices_steal_on\": {\"completed\": " << multi.completed
        << ", \"busy_makespan_s\": " << multi.makespan_s
        << ", \"jobs_per_busy_s\": " << multi.rate()
        << ", \"wall_s\": " << multi.wall_s
        << ", \"steal_jobs\": " << multi.steal_jobs
        << ", \"steal_nodes\": " << multi.steal_nodes << "},\n"
        << "  \"scaling\": " << scaling << ",\n"
        << "  \"gate\": 1.5\n"
        << "}\n";
  }

  if (base.completed != multi.completed ||
      base.completed != static_cast<std::uint64_t>(kSmokeJobs)) {
    std::fprintf(stderr,
                 "FAIL: job conservation broke (%llu vs %llu of %d)\n",
                 static_cast<unsigned long long>(base.completed),
                 static_cast<unsigned long long>(multi.completed),
                 kSmokeJobs);
    return 1;
  }
  if (scaling < 1.5) {
    std::fprintf(stderr, "FAIL: scaling %.2fx below the 1.5x gate\n",
                 scaling);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_out = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--multidevice-smoke") smoke = true;
    if (arg == "--json-out" && i + 1 < argc) json_out = argv[i + 1];
  }
  if (smoke) return multidevice_smoke(json_out);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

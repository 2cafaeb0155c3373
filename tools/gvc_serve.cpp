// gvc_serve — drives a SolveService with a stream of solve requests and
// reports throughput and per-job latency percentiles.
//
//   gvc_serve [SPECFILE] [options]
//
// SPECFILE holds one request per line (use "-" for stdin):
//
//   INSTANCE [method] [pvc K] [priority=P] [deadline=S] [xN]
//
// where INSTANCE is a paper_catalog() instance name at --scale, `method`
// is sequential|stackonly|hybrid|globalonly|workstealing (default hybrid),
// `pvc K` switches to the parameterized problem, `priority=P` orders the
// queue, `deadline=S` drops the job if not started within S seconds, and
// `xN` repeats the line N times (repeats are exact duplicates — they
// exercise the cache/coalescing path).
//
// Without a SPECFILE a synthetic workload is generated from the catalog:
//   --jobs N        total jobs (default 64)
//   --distinct D    distinct instances drawn round-robin (default 8)
// so a (N, D) choice fixes the offered cache-hit ratio at 1 - D/N.
//
// Service knobs:
//   --workers N            worker threads / device slices (default 4)
//   --devices N            virtual devices to shard the machine into; each
//                          worker pins to one device's slice (default 1)
//   --steal-tiers S        none|jobs|jobs+nodes work-conserving stealing
//                          (docs/sharding.md; default none)
//   --queue-capacity N     per-shard admission queue (default 256)
//   --reject               reject on a full shard instead of blocking
//   --cache-capacity N     completed-entry LRU capacity (default 1024)
//   --no-partition         workers use the submitted device spec verbatim
//   --scale S              smoke|default|large catalog scale (default smoke)
//   --branch-state S       undotrail|copy backtracking for every job's
//                          solve (default undotrail; identical results;
//                          globalonly and workstealing ignore it)
//   --time-limit S         per-job solve budget (default 0 = none)
//   --min-cache-seconds S  cost-aware cache admission: skip storing solves
//                          cheaper than S seconds (default 0 = store all)
//
// Workload stress knobs:
//   --deadline-ms M        per-job deadline M ms from submission, enforced
//                          end to end (admission, dequeue, and mid-solve
//                          via each job's SolveControl; default 0 = none)
//   --cancel-after-ms M    cancel every still-outstanding ticket M ms after
//                          the batch is submitted (exercises
//                          JobTicket::cancel; default 0 = never)
//   --progress-every S     enable SolveControl progress publication on every
//                          job and print a periodic [progress] line — jobs
//                          terminal, jobs running, in-flight tree nodes,
//                          best incumbent and the live worker phase split —
//                          every S seconds (default 0 = off)
//
// Observability (docs/observability.md):
//   --trace-out FILE       record an obs event-trace session over the whole
//                          batch and write Chrome trace-event JSON to FILE
//                          (open in Perfetto; validate with trace_check)
//   --trace-capacity N     per-thread trace buffer capacity (default 32768)
//   --trace-sample N       sample 1-in-N per-node hot-path events
//                          (default 64; 1 = record everything)
//   --metrics-out FILE     after the batch, dump the process-global
//                          obs::Registry as Prometheus text to FILE
//   --metrics-text         print the same scrape to stdout
//
// Output: one line per terminal state class plus the Outcome breakdown of
// delivered results (optimal/feasible/deadline/cancelled/...), throughput
// (jobs/sec of wall time over the whole batch), latency percentiles from
// the service's histograms — end-to-end submit→terminal, plus the
// queue-wait and solve-time split — cache statistics, the per-worker job
// distribution, and the per-worker phase table.

#include <csignal>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "harness/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "service/solve_service.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace gvc;

/// Builds a JobSpec from one spec line (grammar in tools/cli_common.hpp);
/// aborts on malformed lines — this is a trusted local file, unlike the
/// daemon's socket input.
service::JobSpec spec_from_line(const std::string& line,
                                const std::vector<harness::Instance>& catalog,
                                const service::JobSpec& base, int* repeat) {
  std::string why;
  const std::optional<tools::SpecLine> parsed =
      tools::try_parse_spec_line(line, &why);
  GVC_CHECK_MSG(parsed.has_value(), ("spec line: " + why).c_str());
  service::JobSpec spec = base;
  spec.graph = tools::borrow(harness::find_instance(catalog, parsed->instance));
  if (parsed->method.has_value()) spec.method = *parsed->method;
  if (parsed->pvc) {
    spec.config.problem = vc::Problem::kPvc;
    spec.config.k = parsed->k;
  }
  spec.priority = parsed->priority;
  if (parsed->deadline_s > 0.0) spec.deadline_s = parsed->deadline_s;
  *repeat = parsed->repeat;
  return spec;
}

/// SIGINT/SIGTERM latch: the handler only flips the flag (async-signal-
/// safe); a watcher thread notices, cancels every outstanding ticket, and
/// the normal wait loop then falls through to the final report — an
/// interrupt no longer loses the stats. A second signal exits immediately.
volatile std::sig_atomic_t g_interrupts = 0;
void on_signal(int) {
  g_interrupts = g_interrupts + 1;  // volatile ++ is deprecated in C++20
  if (g_interrupts > 1) std::_Exit(130);
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);

  const std::optional<harness::Scale> scale =
      harness::try_parse_scale(args.get("scale", "smoke"));
  if (!scale.has_value()) {
    std::fprintf(stderr, "unknown --scale '%s' (want smoke|default|large)\n",
                 args.get("scale", "smoke").c_str());
    return 64;
  }
  std::vector<harness::Instance> catalog = harness::paper_catalog(*scale);

  service::JobSpec base;
  base.limits.time_limit_s = args.get_double("time-limit", 0.0);
  base.deadline_s = args.get_double("deadline-ms", 0.0) * 1e-3;
  // Shared solver-shape flags (tools/cli_common.hpp): --branch-state and
  // friends.
  if (!tools::parse_solver_flags(args, &base.config)) return 64;
  const double cancel_after_ms = args.get_double("cancel-after-ms", 0.0);
  const double progress_every_s = args.get_double("progress-every", 0.0);
  const std::string trace_out = args.get("trace-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const bool metrics_text = args.get_bool("metrics-text", false);

  service::ServiceOptions opts;
  opts.num_workers = static_cast<int>(args.get_int("workers", 4));
  opts.num_devices = static_cast<int>(args.get_int("devices", 1));
  {
    const std::string tiers = args.get("steal-tiers", "none");
    const std::optional<service::StealTiers> parsed =
        service::try_parse_steal_tiers(tiers);
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "unknown --steal-tiers '%s' (want none|jobs|jobs+nodes)\n",
                   tiers.c_str());
      return 64;
    }
    opts.steal_tiers = *parsed;
  }
  opts.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 256));
  opts.full_policy = args.get_bool("reject", false)
                         ? service::JobQueue::FullPolicy::kReject
                         : service::JobQueue::FullPolicy::kBlock;
  opts.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache-capacity", 1024));
  opts.partition_device = !args.get_bool("no-partition", false);
  opts.min_cache_seconds = args.get_double("min-cache-seconds", 0.0);

  // Assemble the workload before starting the clock.
  std::vector<service::JobSpec> specs;
  if (!args.positional().empty()) {
    const std::string path = args.positional()[0];
    std::ifstream file;
    std::istream* in = &std::cin;
    if (path != "-") {
      file.open(path);
      GVC_CHECK_MSG(file.good(), "cannot open spec file");
      in = &file;
    }
    std::string line;
    while (std::getline(*in, line)) {
      if (line.empty() || line[0] == '#') continue;
      int repeat = 1;
      const service::JobSpec spec =
          spec_from_line(line, catalog, base, &repeat);
      for (int i = 0; i < repeat; ++i) specs.push_back(spec);
    }
  } else {
    const int jobs = static_cast<int>(args.get_int("jobs", 64));
    const int distinct = std::max(
        1, std::min(static_cast<int>(args.get_int("distinct", 8)),
                    static_cast<int>(catalog.size())));
    for (int i = 0; i < jobs; ++i) {
      service::JobSpec spec = base;
      spec.graph =
          tools::borrow(catalog[static_cast<std::size_t>(i % distinct)]);
      spec.method = parallel::Method::kHybrid;
      specs.push_back(std::move(spec));
    }
  }
  GVC_CHECK_MSG(!specs.empty(), "no jobs to run");

  std::printf(
      "gvc_serve: %zu jobs, %d workers on %d device%s (steal: %s), "
      "queue %zu (%s), cache %zu%s\n",
      specs.size(), opts.num_workers, opts.num_devices,
      opts.num_devices == 1 ? "" : "s",
      service::steal_tiers_name(opts.steal_tiers), opts.queue_capacity,
      opts.full_policy == service::JobQueue::FullPolicy::kBlock ? "block"
                                                                : "reject",
      opts.cache_capacity,
      opts.partition_device ? ", partitioned device" : "");

  // Start the trace session BEFORE the service exists so worker threads
  // register (and label) their buffers from their very first event.
  if (!trace_out.empty()) {
    obs::TraceOptions topts;
    topts.capacity_per_thread = static_cast<std::size_t>(
        args.get_int("trace-capacity", 1 << 15));
    topts.sample_every =
        static_cast<std::uint32_t>(args.get_int("trace-sample", 64));
    obs::set_thread_label("gvc_serve-main");
    GVC_CHECK_MSG(obs::trace_start(topts), "a trace session is already on");
  }

  service::SolveService svc(opts);
  util::WallTimer timer;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::vector<service::JobTicket> tickets = svc.submit_all(std::move(specs));

  // Graceful-interrupt watcher: on SIGINT/SIGTERM, cancel everything still
  // outstanding (queued jobs turn terminal instantly, running solves stop
  // through their SolveControl) so the wait loop below drains and the full
  // final report still prints.
  std::atomic<bool> interrupt_watch_stop{false};
  std::atomic<bool> interrupted{false};
  std::thread interrupt_watch(
      [&tickets, &interrupt_watch_stop, &interrupted] {
        while (!interrupt_watch_stop.load(std::memory_order_acquire)) {
          if (g_interrupts > 0) {
            interrupted.store(true, std::memory_order_release);
            std::size_t hit = 0;
            for (const auto& t : tickets)
              if (t.cancel()) ++hit;
            std::printf("  [signal] interrupt: cancelled %zu outstanding "
                        "tickets, draining...\n",
                        hit);
            std::fflush(stdout);
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });

  // The --progress-every monitor: each job's SolveControl already exists at
  // submission, so publication can be switched on for all of them and one
  // thread can poll best-so-far/node snapshots while the batch runs. A late
  // enable (a worker may already be solving) is benign — solvers re-check
  // progress_enabled() at their amortized cadence.
  std::thread monitor;
  std::atomic<bool> monitor_stop{false};
  if (progress_every_s > 0.0) {
    for (const auto& t : tickets)
      if (t.state) t.state->control()->enable_progress();
    monitor = std::thread([&tickets, &svc, &monitor_stop, progress_every_s] {
      for (;;) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(progress_every_s));
        if (monitor_stop.load(std::memory_order_acquire)) return;
        std::size_t terminal = 0, running = 0;
        std::uint64_t nodes = 0;
        int best = -1;
        for (const auto& t : tickets) {
          if (!t.state) continue;
          const service::JobStatus s = t.state->status();
          if (service::is_terminal(s)) {
            ++terminal;
            continue;
          }
          if (s != service::JobStatus::kRunning) continue;
          ++running;
          const vc::SolveControl::Progress p = t.state->control()->progress();
          nodes += p.tree_nodes;
          if (p.best_size >= 0 && (best < 0 || p.best_size < best))
            best = p.best_size;
        }
        if (terminal == tickets.size()) return;
        std::printf("  [progress] %zu/%zu terminal, %zu running, "
                    "%llu nodes in flight, best so far %d\n"
                    "  [progress]   phases: %s\n",
                    terminal, tickets.size(), running,
                    static_cast<unsigned long long>(nodes), best,
                    obs::format_phase_split(svc.phases().merged()).c_str());
        std::fflush(stdout);
      }
    });
  }

  // The --cancel-after-ms stressor: one watchdog thread sweeps the batch
  // and cancels whatever is not yet terminal — queued jobs turn terminal
  // on the spot, running solves stop through their SolveControl.
  std::thread canceller;
  if (cancel_after_ms > 0.0) {
    canceller = std::thread([&tickets, cancel_after_ms] {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          cancel_after_ms));
      std::size_t hit = 0;
      for (const auto& t : tickets)
        if (t.cancel()) ++hit;
      std::printf("  [canceller] cancelled %zu outstanding tickets\n", hit);
    });
  }

  // Latency aggregation lives in the service's log-bucketed histograms now
  // (bounded memory, exact counts, <=12.5% relative quantile error) — no
  // per-ticket sample vector, no O(n log n) sort at the end.
  std::size_t done = 0, expired = 0, cancelled = 0, rejected = 0;
  std::array<std::size_t, 7> by_outcome{};  // indexed by vc::Outcome
  for (const auto& t : tickets) {
    switch (t.state->wait()) {
      case service::JobStatus::kDone: ++done; break;
      case service::JobStatus::kExpired: ++expired; break;
      case service::JobStatus::kCancelled: ++cancelled; break;
      default: ++rejected; break;
    }
    ++by_outcome[static_cast<std::size_t>(t.state->result().outcome)];
  }
  const double wall = timer.seconds();
  if (canceller.joinable()) canceller.join();
  monitor_stop.store(true, std::memory_order_release);
  if (monitor.joinable()) monitor.join();
  interrupt_watch_stop.store(true, std::memory_order_release);
  if (interrupt_watch.joinable()) interrupt_watch.join();

  service::ServiceStats stats = svc.stats();
  std::printf("\n  done %zu, expired %zu, cancelled %zu, rejected %zu "
              "in %.3f s -> %.1f jobs/sec\n",
              done, expired, cancelled, rejected, wall,
              static_cast<double>(tickets.size()) / wall);
  std::printf("  outcomes ");
  for (std::size_t o = 0; o < by_outcome.size(); ++o)
    if (by_outcome[o] != 0)
      std::printf(" %s %zu", vc::to_string(static_cast<vc::Outcome>(o)),
                  by_outcome[o]);
  std::printf("\n");
  const auto print_latency = [](const char* label,
                                const obs::Histogram::Snapshot& h) {
    std::printf("  %-8s p50 %.4fs  p90 %.4fs  p99 %.4fs  max %.4fs  "
                "(%llu samples)\n",
                label, h.quantile_seconds(0.50), h.quantile_seconds(0.90),
                h.quantile_seconds(0.99), h.max_seconds(),
                static_cast<unsigned long long>(h.count));
  };
  print_latency("e2e", stats.e2e_latency);     // true submit -> terminal
  print_latency("queue", stats.queue_wait);    // submit -> dequeue
  print_latency("solve", stats.solve_latency); // worker solve wall time
  std::printf("  cache    %llu hits, %llu coalesced, %llu misses "
              "(hit ratio %.2f), %llu evictions, %zu entries\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.inflight_hits),
              static_cast<unsigned long long>(stats.cache.misses),
              stats.cache.hit_ratio(),
              static_cast<unsigned long long>(stats.cache.evictions),
              stats.cache.completed_entries);
  std::printf("  workers ");
  for (std::size_t w = 0; w < stats.jobs_per_worker.size(); ++w)
    std::printf(" [%zu] %llu", w,
                static_cast<unsigned long long>(stats.jobs_per_worker[w]));
  std::printf("\n");
  std::printf("  phase split (all workers): %s\n%s",
              obs::format_phase_split(svc.phases().merged()).c_str(),
              obs::format_phase_table(svc.phases()).c_str());

  if (!trace_out.empty()) {
    obs::trace_stop();
    const obs::TraceSummary ts = obs::trace_summary();
    if (!obs::trace_write_chrome_json(trace_out)) {
      std::fprintf(stderr, "cannot write trace to '%s'\n", trace_out.c_str());
      return 74;
    }
    std::printf("  trace    %zu events from %zu threads (%llu dropped) -> %s\n",
                ts.events, ts.threads,
                static_cast<unsigned long long>(ts.dropped),
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    std::ofstream mf(metrics_out);
    if (!mf.good()) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n",
                   metrics_out.c_str());
      return 74;
    }
    mf << obs::Registry::global().prometheus_text();
    std::printf("  metrics  registry scrape -> %s\n", metrics_out.c_str());
  }
  if (metrics_text)
    std::printf("\n%s", obs::Registry::global().prometheus_text().c_str());

  const bool drops_expected = cancel_after_ms > 0.0 || base.deadline_s > 0.0 ||
                              interrupted.load(std::memory_order_acquire);
  if (interrupted.load(std::memory_order_acquire)) return 130;
  return done == tickets.size() || drops_expected ? 0 : 1;
}

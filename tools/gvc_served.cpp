// gvc_served — the socket-serving daemon: exposes a SolveService over the
// length-prefixed frame protocol (docs/serving.md) so clients in other
// processes (or machines) submit solve jobs through net::Client instead of
// linking the solver.
//
//   gvc_served [options]
//
//   --listen ADDR          host:port or bare port (default 127.0.0.1:0 —
//                          an ephemeral port; the bound address is printed
//                          as "listening on HOST:PORT" on stdout)
//   --workers N            service worker threads (default 4)
//   --queue-capacity N     per-shard admission queue (default 256)
//   --cache-capacity N     completed-entry LRU capacity (default 1024)
//   --min-cache-seconds S  cost-aware cache admission floor (default 0)
//   --no-partition         run each job on its submitted device spec
//                          verbatim (required for bit-identical parity
//                          with client-side direct solve() calls)
//   --scale S              catalog scale served for by-name requests
//                          (smoke|default|large, default smoke)
//   --max-frame BYTES      per-frame size cap, binary suffixes OK ("64M")
//   --max-write-queue BYTES  per-connection write-queue bound ("8M")
//   --max-graph-bytes BYTES  per-connection uploaded-graph byte budget
//                          ("256M"); uploads over it get not-allowed
//   --max-graph-bytes-total BYTES  same budget across all connections ("1G")
//   --allow-remote-shutdown  honor Op::kShutdown from clients
//   --drain-timeout S      graceful-stop drain budget (default 10)
//   --metrics-out FILE     Prometheus scrape of the registry at shutdown
//   --metrics-text         print the same scrape to stdout at shutdown
//
// Admission always uses FullPolicy::kReject: a blocking submit would stall
// the reactor — and with it every connection — on one full shard. Clients
// see the rejection as Accepted{rejected} + an immediate kRejected Result
// and retry at their own pace.
//
// SIGINT/SIGTERM trigger a graceful shutdown: admission stops (new solves
// get kShuttingDown), in-flight jobs drain, results flush, and the final
// stats/metrics report prints before exit.

#include <csignal>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cli_common.hpp"
#include "harness/catalog.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/solve_service.hpp"
#include "util/cli.hpp"

namespace {

using namespace gvc;

net::Server* g_server = nullptr;
void on_signal(int) {
  // begin_shutdown() is async-signal-safe by contract (atomic store + one
  // pipe write); the main loop below sees shutdown_requested() and drains.
  if (g_server != nullptr) g_server->begin_shutdown();
}

constexpr char kUsage[] =
    "usage: %s [--listen HOST:PORT] [options] (see the header of "
    "tools/gvc_served.cpp)\n";

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);

  if (!tools::check_flags(
          args,
          {"listen", "scale", "max-frame", "max-write-queue",
           "max-graph-bytes", "max-graph-bytes-total", "workers",
           "queue-capacity", "cache-capacity", "min-cache-seconds",
           "no-partition", "allow-remote-shutdown", "drain-timeout",
           "metrics-out", "metrics-text"},
          kUsage))
    return 64;
  const std::optional<tools::HostPort> listen =
      tools::try_parse_host_port(args.get("listen", "127.0.0.1:0"));
  if (!listen.has_value()) {
    std::fprintf(stderr, "bad --listen '%s' (want HOST:PORT or PORT)\n",
                 args.get("listen", "").c_str());
    return 64;
  }
  const std::optional<harness::Scale> scale =
      harness::try_parse_scale(args.get("scale", "smoke"));
  if (!scale.has_value()) {
    std::fprintf(stderr, "unknown --scale '%s' (want smoke|default|large)\n",
                 args.get("scale", "smoke").c_str());
    return 64;
  }
  std::optional<std::size_t> max_frame = net::kDefaultMaxFrameBytes;
  if (args.has("max-frame") &&
      !(max_frame = tools::try_parse_bytes(args.get("max-frame")))
           .has_value()) {
    std::fprintf(stderr, "bad --max-frame '%s' (want e.g. 4096, 64M, 1G)\n",
                 args.get("max-frame").c_str());
    return 64;
  }
  std::optional<std::size_t> max_wq = std::size_t{8} << 20;
  if (args.has("max-write-queue") &&
      !(max_wq = tools::try_parse_bytes(args.get("max-write-queue")))
           .has_value()) {
    std::fprintf(stderr, "bad --max-write-queue '%s'\n",
                 args.get("max-write-queue").c_str());
    return 64;
  }
  std::optional<std::size_t> max_graph_bytes = std::size_t{256} << 20;
  if (args.has("max-graph-bytes") &&
      !(max_graph_bytes = tools::try_parse_bytes(args.get("max-graph-bytes")))
           .has_value()) {
    std::fprintf(stderr, "bad --max-graph-bytes '%s'\n",
                 args.get("max-graph-bytes").c_str());
    return 64;
  }
  std::optional<std::size_t> max_graph_total = std::size_t{1} << 30;
  if (args.has("max-graph-bytes-total") &&
      !(max_graph_total =
            tools::try_parse_bytes(args.get("max-graph-bytes-total")))
           .has_value()) {
    std::fprintf(stderr, "bad --max-graph-bytes-total '%s'\n",
                 args.get("max-graph-bytes-total").c_str());
    return 64;
  }

  service::ServiceOptions opts;
  opts.num_workers = static_cast<int>(args.get_int("workers", 4));
  opts.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 256));
  opts.full_policy = service::JobQueue::FullPolicy::kReject;  // see header
  opts.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache-capacity", 1024));
  opts.min_cache_seconds = args.get_double("min-cache-seconds", 0.0);
  opts.partition_device = !args.get_bool("no-partition", false);
  service::SolveService svc(opts);

  // By-name graph resolution against the paper catalog, memoized so the
  // reactor pays generation cost once per instance.
  std::vector<harness::Instance> catalog = harness::paper_catalog(*scale);
  auto memo = std::make_shared<
      std::unordered_map<std::string, std::shared_ptr<const graph::CsrGraph>>>();

  net::ServerOptions sopts;
  sopts.bind_address = listen->host;
  sopts.port = listen->port;
  sopts.max_frame_bytes = *max_frame;
  sopts.max_write_queue_bytes = *max_wq;
  sopts.max_graph_bytes_per_connection = *max_graph_bytes;
  sopts.max_graph_bytes_total = *max_graph_total;
  sopts.allow_remote_shutdown = args.get_bool("allow-remote-shutdown", false);
  sopts.instance_resolver =
      [catalog = std::move(catalog),
       memo](const std::string& name) -> std::shared_ptr<const graph::CsrGraph> {
    const auto it = memo->find(name);
    if (it != memo->end()) return it->second;
    for (const harness::Instance& inst : catalog) {
      if (inst.name() == name) {
        auto g = tools::borrow(inst);  // catalog lives in the closure
        memo->emplace(name, g);
        return g;
      }
    }
    return nullptr;
  };

  net::Server server(svc, std::move(sopts));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "gvc_served: cannot start: %s\n", error.c_str());
    return 74;
  }
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("gvc_served: listening on %s:%d (%d workers, %s scale)\n",
              listen->host.c_str(), server.port(), opts.num_workers,
              args.get("scale", "smoke").c_str());
  std::fflush(stdout);

  while (!server.shutdown_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("gvc_served: shutdown requested, draining...\n");
  std::fflush(stdout);
  server.stop(args.get_double("drain-timeout", 10.0));
  g_server = nullptr;
  svc.shutdown();

  // Final report: connection/frame/job totals and the service view.
  obs::Registry& reg = obs::Registry::global();
  const service::ServiceStats stats = svc.stats();
  std::printf("gvc_served: final stats\n");
  std::printf("  net      %llu connections, %llu frames in, %llu frames out, "
              "%llu solve requests, %llu abandoned on disconnect\n",
              static_cast<unsigned long long>(
                  reg.counter_value("gvc_net_connections_total")),
              static_cast<unsigned long long>(
                  reg.counter_value("gvc_net_frames_in_total")),
              static_cast<unsigned long long>(
                  reg.counter_value("gvc_net_frames_out_total")),
              static_cast<unsigned long long>(
                  reg.counter_value("gvc_net_solves_total")),
              static_cast<unsigned long long>(
                  reg.counter_value("gvc_net_disconnect_abandoned_total")));
  std::printf("  service  %llu submitted, %llu completed, %llu hits, "
              "%llu coalesced, %llu rejected, %llu expired, %llu cancelled\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.expired),
              static_cast<unsigned long long>(stats.cancelled));
  std::printf("  cache    %llu hits, %llu misses, %zu entries\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              stats.cache.completed_entries);

  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream mf(metrics_out);
    if (!mf.good()) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n",
                   metrics_out.c_str());
      return 74;
    }
    mf << reg.prometheus_text();
    std::printf("  metrics  registry scrape -> %s\n", metrics_out.c_str());
  }
  if (args.get_bool("metrics-text", false))
    std::printf("\n%s", reg.prometheus_text().c_str());
  std::printf("gvc_served: clean exit\n");
  return 0;
}

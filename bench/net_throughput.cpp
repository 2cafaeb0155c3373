// net_throughput — multi-process load bench for the serving daemon
// (tools/gvc_served's stack driven as a library). One forked server
// process runs SolveService + net::Server on an ephemeral port; N forked
// client processes (real processes, not threads — the point is to load the
// daemon the way separate tenants would) each upload a private pool of
// G(n, p) instances, then keep a window of solves in flight over one
// multiplexed connection and record per-job turnaround.
//
// The parent forks everything BEFORE creating any thread: the server and
// client children spin up their own threads after fork, so no lock is ever
// cloned in a held state.
//
//   net_throughput [--clients N>=4] [--jobs J] [--window W] [--workers K]
//                  [--queue-capacity C] [--gnp-n V] [--distinct D]
//                  [--drain SECONDS] [--out FILE]
//
// Workload shape follows micro_service_throughput: millisecond-scale
// G(n, p) solves (n defaults to 72), so the measured latency is dominated
// by the serving stack — framing, multiplexing, queueing — not by solver
// depth. Every (client, job) pair gets a distinct branch seed: no cache
// hits, no coalescing, every job is a real solve. The default queue
// capacity (4 per worker shard) is deliberately smaller than the default
// offered load (4 clients x 8-deep windows = 32 concurrent solves), so the
// run demonstrates saturation: the daemon's kReject admission sheds the
// overflow and the bench reports how much load survived. Completed-job
// latencies merge across clients into p50/p99/p999; --out writes the
// machine-readable summary (perfbench/README.md maps its retired capture,
// BENCH_PR8.json, to the ladder's serve_wire rows).
//
// Exit 1 if any process misbehaves or no jobs complete; 64 on usage.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/solve_service.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace gvc;

// ---------------------------------------------------------------------------
// Pipe plumbing: fixed-size binary records, written once at child exit.
// ---------------------------------------------------------------------------

bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

struct ClientReport {
  std::uint64_t done = 0;      ///< completed with a Result frame
  std::uint64_t rejected = 0;  ///< shed at admission (queue full)
  std::uint64_t failed = 0;    ///< anything else (protocol/connection)
};

struct ServerReport {
  std::uint64_t solves = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t connections = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t rejected = 0;
};

// ---------------------------------------------------------------------------
// Server child: the daemon stack in-process, ended by SIGTERM from the
// parent once every client is reaped.
// ---------------------------------------------------------------------------

net::Server* g_server = nullptr;

void on_term(int) {
  if (g_server != nullptr) g_server->begin_shutdown();
}

int run_server(int workers, std::size_t queue_capacity, double drain_s,
               int port_fd, int stats_fd) {
  service::ServiceOptions sopts;
  sopts.num_workers = workers;
  sopts.queue_capacity = queue_capacity;
  sopts.partition_device = false;
  // kReject, never kBlock: a blocking admission would stall the reactor
  // thread and the bench would measure the stall, not the service.
  sopts.full_policy = service::JobQueue::FullPolicy::kReject;
  service::SolveService svc(sopts);

  // No instance_resolver: the bench's clients upload their graphs, which
  // keeps the whole workload on the wire (and exercises the upload path).
  net::ServerOptions nopts;
  net::Server server(svc, nopts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "net_throughput[server]: start failed: %s\n",
                 error.c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, &on_term);
  std::signal(SIGINT, &on_term);
  std::signal(SIGPIPE, SIG_IGN);

  const std::int32_t port = static_cast<std::int32_t>(server.port());
  if (!write_all(port_fd, &port, sizeof(port))) return 1;
  ::close(port_fd);

  while (!server.shutdown_requested()) ::usleep(20 * 1000);
  server.stop(drain_s);
  svc.shutdown();

  const obs::Registry& reg = obs::Registry::global();
  const service::ServiceStats stats = svc.stats();
  ServerReport rep;
  rep.solves = reg.counter_value("gvc_net_solves_total");
  rep.frames_in = reg.counter_value("gvc_net_frames_in_total");
  rep.frames_out = reg.counter_value("gvc_net_frames_out_total");
  rep.connections = reg.counter_value("gvc_net_connections_total");
  rep.submitted = stats.submitted;
  rep.completed = stats.completed;
  rep.cache_hits = stats.cache_hits;
  rep.coalesced = stats.coalesced;
  rep.rejected = stats.rejected;
  if (!write_all(stats_fd, &rep, sizeof(rep))) return 1;
  ::close(stats_fd);
  return 0;
}

// ---------------------------------------------------------------------------
// Client child: one connection, a sliding window of in-flight solves.
// ---------------------------------------------------------------------------

int run_client(int index, int port, int jobs, int window, int gnp_n,
               int distinct, int out_fd) {
  net::Client client;
  std::string error;
  if (!client.connect("127.0.0.1", port, &error)) {
    std::fprintf(stderr, "net_throughput[client %d]: connect: %s\n", index,
                 error.c_str());
    return 1;
  }

  // Upload this client's private instance pool. Graph ids are local to the
  // connection; seeds differ per (client, slot) so no two clients ever
  // share a cache key.
  for (int slot = 0; slot < distinct; ++slot) {
    const graph::CsrGraph g =
        graph::gnp(gnp_n, 0.22,
                   1000u * static_cast<std::uint64_t>(index + 1) +
                       static_cast<std::uint64_t>(slot));
    net::GraphAckMsg ack;
    net::ErrorMsg err;
    if (!client.upload_graph(static_cast<std::uint64_t>(slot + 1), g, &ack,
                             &err)) {
      std::fprintf(stderr, "net_throughput[client %d]: upload %d failed\n",
                   index, slot);
      return 1;
    }
  }

  ClientReport rep;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(jobs));

  struct InFlight {
    std::uint64_t id;
    double submitted_at;
  };
  std::vector<InFlight> inflight;
  util::WallTimer clock;

  const auto reap_oldest = [&] {
    const InFlight oldest = inflight.front();
    inflight.erase(inflight.begin());
    net::ResultMsg result;
    net::ErrorMsg err;
    if (!client.wait_result(oldest.id, &result, &err)) {
      ++rep.failed;
    } else if (result.status == 2) {  // wire JobStatus: done
      latencies.push_back(clock.seconds() - oldest.submitted_at);
      ++rep.done;
    } else if (result.status == 5) {  // wire JobStatus: rejected (queue full)
      ++rep.rejected;
    } else {
      ++rep.failed;
    }
  };

  for (int i = 0; i < jobs; ++i) {
    net::SolveRequestMsg req;
    req.graph_id = static_cast<std::uint64_t>(i % distinct) + 1;
    // Distinct seeds across every (client, job) pair: each solve is real
    // work, not a cache hit or a coalesced wait on a neighbor's solve.
    req.config.branch_seed =
        0xB0B0'0000u + static_cast<std::uint64_t>(index) * 100003u +
        static_cast<std::uint64_t>(i);
    const std::uint64_t id = client.submit(req);
    if (id == 0) {
      ++rep.failed;
      continue;
    }
    inflight.push_back({id, clock.seconds()});
    while (inflight.size() >= static_cast<std::size_t>(window)) reap_oldest();
  }
  while (!inflight.empty()) reap_oldest();
  client.close();

  if (!write_all(out_fd, &rep, sizeof(rep))) return 1;
  const std::uint64_t count = latencies.size();
  if (!write_all(out_fd, &count, sizeof(count))) return 1;
  if (count > 0 &&
      !write_all(out_fd, latencies.data(), count * sizeof(double)))
    return 1;
  ::close(out_fd);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent: fork, merge, report.
// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(
      stderr,
      "usage: net_throughput [--clients N>=4] [--jobs J] [--window W]\n"
      "                      [--workers K] [--queue-capacity C] [--gnp-n V]\n"
      "                      [--distinct D] [--drain SECONDS] [--out FILE]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const int clients = static_cast<int>(args.get_int("clients", 4));
  const int jobs = static_cast<int>(args.get_int("jobs", 40));
  const int window = static_cast<int>(args.get_int("window", 8));
  const int workers = static_cast<int>(args.get_int("workers", 4));
  const std::size_t queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 4));
  const int gnp_n = static_cast<int>(args.get_int("gnp-n", 72));
  const int distinct = static_cast<int>(args.get_int("distinct", 6));
  const double drain_s = args.get_double("drain", 10.0);
  const std::string out_path = args.get("out", "");
  if (clients < 4 || jobs < 1 || window < 1 || workers < 1 || gnp_n < 4 ||
      distinct < 1)
    return usage();

  // --- server child (forked while this process is still single-threaded) --
  int port_pipe[2], stats_pipe[2];
  if (::pipe(port_pipe) != 0 || ::pipe(stats_pipe) != 0) return 1;
  const pid_t server_pid = ::fork();
  if (server_pid < 0) return 1;
  if (server_pid == 0) {
    ::close(port_pipe[0]);
    ::close(stats_pipe[0]);
    std::_Exit(run_server(workers, queue_capacity, drain_s, port_pipe[1],
                          stats_pipe[1]));
  }
  ::close(port_pipe[1]);
  ::close(stats_pipe[1]);

  std::int32_t port = 0;
  if (!read_all(port_pipe[0], &port, sizeof(port)) || port <= 0) {
    std::fprintf(stderr, "net_throughput: server failed to report a port\n");
    ::kill(server_pid, SIGKILL);
    return 1;
  }
  ::close(port_pipe[0]);
  std::fprintf(stderr, "net_throughput: server on 127.0.0.1:%d, %d clients x "
               "%d jobs (window %d)\n", port, clients, jobs, window);

  // --- client children ----------------------------------------------------
  util::WallTimer wall;
  std::vector<pid_t> client_pids;
  std::vector<int> client_fds;
  for (int c = 0; c < clients; ++c) {
    int fds[2];
    if (::pipe(fds) != 0) return 1;
    const pid_t pid = ::fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      ::close(fds[0]);
      for (int fd : client_fds) ::close(fd);
      std::_Exit(run_client(c, port, jobs, window, gnp_n, distinct, fds[1]));
    }
    ::close(fds[1]);
    client_pids.push_back(pid);
    client_fds.push_back(fds[0]);
  }

  // --- merge --------------------------------------------------------------
  ClientReport total;
  std::vector<double> latencies;
  bool child_failed = false;
  for (int c = 0; c < clients; ++c) {
    ClientReport rep;
    std::uint64_t count = 0;
    if (read_all(client_fds[c], &rep, sizeof(rep)) &&
        read_all(client_fds[c], &count, sizeof(count))) {
      std::vector<double> lats(count);
      if (count == 0 ||
          read_all(client_fds[c], lats.data(), count * sizeof(double))) {
        total.done += rep.done;
        total.rejected += rep.rejected;
        total.failed += rep.failed;
        latencies.insert(latencies.end(), lats.begin(), lats.end());
      } else {
        child_failed = true;
      }
    } else {
      child_failed = true;
    }
    ::close(client_fds[c]);
    int status = 0;
    ::waitpid(client_pids[c], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) child_failed = true;
  }
  const double wall_s = wall.seconds();

  // --- stop the server, collect its counters ------------------------------
  ::kill(server_pid, SIGTERM);
  ServerReport server_rep;
  const bool have_server_rep =
      read_all(stats_pipe[0], &server_rep, sizeof(server_rep));
  ::close(stats_pipe[0]);
  int server_status = 0;
  ::waitpid(server_pid, &server_status, 0);
  const bool server_ok = have_server_rep && WIFEXITED(server_status) &&
                         WEXITSTATUS(server_status) == 0;

  const std::uint64_t offered =
      static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(jobs);
  const double p50 = util::quantile(latencies, 0.50);
  const double p99 = util::quantile(latencies, 0.99);
  const double p999 = util::quantile(latencies, 0.999);
  const double throughput = wall_s > 0 ? total.done / wall_s : 0.0;

  std::printf("net_throughput: %llu/%llu jobs done in %.3fs "
              "(%.1f jobs/s), %llu rejected (backpressure), %llu failed\n",
              static_cast<unsigned long long>(total.done),
              static_cast<unsigned long long>(offered), wall_s, throughput,
              static_cast<unsigned long long>(total.rejected),
              static_cast<unsigned long long>(total.failed));
  std::printf("  latency p50 %.4fs  p99 %.4fs  p99.9 %.4fs\n", p50, p99,
              p999);
  if (server_ok)
    std::printf("  server: %llu solves, %llu frames in / %llu out, "
                "%llu connections, cache hits %llu, coalesced %llu\n",
                static_cast<unsigned long long>(server_rep.solves),
                static_cast<unsigned long long>(server_rep.frames_in),
                static_cast<unsigned long long>(server_rep.frames_out),
                static_cast<unsigned long long>(server_rep.connections),
                static_cast<unsigned long long>(server_rep.cache_hits),
                static_cast<unsigned long long>(server_rep.coalesced));

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"bench\": \"net_throughput\",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"jobs_per_client\": " << jobs << ",\n"
        << "  \"window\": " << window << ",\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"queue_capacity\": " << queue_capacity << ",\n"
        << "  \"gnp_n\": " << gnp_n << ",\n"
        << "  \"distinct_graphs_per_client\": " << distinct << ",\n"
        << "  \"wall_seconds\": " << wall_s << ",\n"
        << "  \"jobs_offered\": " << offered << ",\n"
        << "  \"jobs_done\": " << total.done << ",\n"
        << "  \"jobs_rejected\": " << total.rejected << ",\n"
        << "  \"jobs_failed\": " << total.failed << ",\n"
        << "  \"throughput_jobs_per_s\": " << throughput << ",\n"
        << "  \"latency_s\": {\"p50\": " << p50 << ", \"p99\": " << p99
        << ", \"p999\": " << p999 << "},\n"
        << "  \"server\": {\"ok\": " << (server_ok ? "true" : "false")
        << ", \"solves_total\": " << server_rep.solves
        << ", \"frames_in_total\": " << server_rep.frames_in
        << ", \"frames_out_total\": " << server_rep.frames_out
        << ", \"connections_total\": " << server_rep.connections
        << ", \"submitted\": " << server_rep.submitted
        << ", \"completed\": " << server_rep.completed
        << ", \"cache_hits\": " << server_rep.cache_hits
        << ", \"coalesced\": " << server_rep.coalesced
        << ", \"rejected\": " << server_rep.rejected << "}\n"
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "net_throughput: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
  }

  return (child_failed || !server_ok || total.done == 0) ? 1 : 0;
}

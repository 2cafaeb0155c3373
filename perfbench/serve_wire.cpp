// serve_wire — one net::Client connection to an in-process daemon
// (net::Server over a SolveService, the gvc_served stack) on loopback.
//
// Set-up uploads a seeded pool of graphs and warms the worker. Then
// kRounds rounds run over one seeded request stream, each a saturation
// window followed by an open-loop window, so both phases sample the host
// over the whole run:
//
//   * saturation: closed loop, kWindow requests in flight; each completion
//     sends the next. ops_per_s is the median over the rounds of completed
//     requests per second. Meanwhile a second thread pings the daemon on
//     the same connection: wire round trips under load. Pings never reach
//     the service.
//   * open loop: request slots are due at the fixed rate kOfferedRate and
//     sent when due whatever the backlog; latency runs from when a request
//     was DUE to when its result arrived, so a stall also charges the
//     requests queued behind it. A failed request counts as an infinite
//     latency. latency_p50_ms and latency_p90_ms are the medians over the
//     rounds of each round's quantile. Only the generator's requests cross
//     the wire in this phase, so the service and wire counters taken around
//     its windows describe them alone.
//
// The traffic mix is assumed, not recorded: the repository holds no log of
// daemon traffic (bench/net_throughput sends fresh solves only). Slots are
// dealt in seeded order from decks of 20 that hold exactly:
//   * 70% fresh MVC solves (a new branch seed: a cache miss and a real
//     Hybrid solve), so that the latencies mostly measure solving;
//   * 5% fresh MVC solves sent twice back to back: the copy finds the
//     original in flight and coalesces. At an offered rate the worker keeps
//     up with, only such a copy reliably reaches the coalescing path;
//   * 10% repeats of one of the last 32 fresh requests: cache hits. Enough
//     to time and check the hit path every run, few enough that near-zero
//     hits do not set the median;
//   * 15% PVC decisions at k = optimum (early exit on the first witness):
//     the second solve path, with enough samples per run to check it.
// The closed-loop window is bench/net_throughput's per-client window.
//
// Every answer is checked against a direct Sequential solve of the same
// graph: the optimum for MVC, a witness of size <= k for PVC, and a valid
// cover either way. Each submission waits for its Accepted frame; a copy
// must be reported coalesced, and over the open loop the Accepted flags
// must add up to the service's cache-hit and coalesced counters.
//
// Sizing, as measured on a 4-vCPU host: a pool of ~5 ms solves, two
// workers, or an offered rate near 70% of saturation each made the
// latencies swing by 10-40% between runs of one seed (thread wake-ups of
// many tiny launches, two shards fed by key hash). The pool therefore holds
// 15-25 ms solves and the service runs one worker. The host's neighbours
// slow it for minutes at a time (saturation fell from ~55 to ~25
// requests/s), and as saturation nears the offered rate, queueing turns
// the slowdown into a much larger tail: at 30 slots/s the open-loop p90 of
// ten seeds spread 0.40; at 20 slots/s, with the phases back to back and
// the p90 taken over the whole open loop, it still spread 0.23-0.30 on a
// busy host where throughput and median stayed within 0.25. So the offered
// rate is now 10 slots/s, about 20% of saturation, which keeps the tail a
// matter of solve times rather than of queueing; and the run is cut into
// rounds, whose medians ignore a burst of load that covers fewer than half
// of them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "parallel/solver.hpp"
#include "service/solve_service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using gvc::graph::CsrGraph;
using gvc::parallel::Method;

/// Open-loop offered rate, request slots per second (saturation measured
/// 25-57 requests/s on a 4-vCPU host, depending on how busy the host's
/// neighbours were). Frozen: a change that makes solves faster must show
/// up as lower latency at this rate, not as another rate.
constexpr double kOfferedRate = 10.0;
/// Closed-loop in-flight window of the saturation phase.
constexpr std::size_t kWindow = 8;
/// Rounds a measurement is cut into, and the share of each round spent in
/// the saturation phase.
constexpr int kRounds = 5;
constexpr double kSaturationShare = 0.25;
/// Pause between two pings of the saturation phase.
constexpr auto kPingInterval = std::chrono::milliseconds(10);

/// The assumed traffic mix (see the top of the file), as slots of every
/// deck of kDeckSlots; the rest are plain fresh solves.
constexpr int kDeckSlots = 20;
constexpr int kRepeatSlots = 2;  // 10%
constexpr int kPvcSlots = 3;     // 15%
constexpr int kTwinSlots = 1;    // 5%

/// Graph id of the warm-up graph on the wire (pool graphs are 1..N).
constexpr std::uint64_t kWarmGraphId = 1000;
constexpr std::uint64_t kWarmSeed = 0xFEED;

/// The pool: gnp/p_hat families whose Sequential solves take 15-25 ms,
/// banded on tree size like the exact_solve mix.
std::vector<Family> pool_families() {
  return {
      {"p_hat_1", [](std::uint64_t s) {
         return gvc::graph::complement(gvc::graph::p_hat(220, 0.10, 0.40, s));
       }, 5800, 6600},
      {"p_hat_2", [](std::uint64_t s) {
         return gvc::graph::complement(gvc::graph::p_hat(150, 0.30, 0.70, s));
       }, 12600, 15000},
      {"gnp_sparse", [](std::uint64_t s) {
         return gvc::graph::gnp(95, 9.0 / 94.0, s);
       }, 13500, 16500},
  };
}
constexpr int kPoolPerFamily = 16;

/// A slot of the stream's deck is kFresh, kRepeat, kPvc or kTwin (a fresh
/// request sent twice); a request's kind is kTwin only for that copy.
enum class Kind : std::uint8_t { kFresh, kRepeat, kPvc, kTwin };

struct RequestSpec {
  Kind kind = Kind::kFresh;
  int graph = 0;  ///< pool index
  std::uint64_t branch_seed = 0;
  bool twin = false;  ///< send a copy right behind it
};

/// The seeded request stream: an endless, deterministic sequence of slots.
/// Kinds are dealt from a shuffled deck holding the mix's exact shares, and
/// graphs from a shuffled deck of the whole pool, so every stretch of the
/// stream carries the same mix over the same graphs: a round's figures then
/// differ by what the host did, not by which requests were drawn.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed, int pool_size)
      : rng_(sub_seed(seed, 0x5EED)), next_seed_(sub_seed(seed, 0xB0B)) {
    kinds_.assign(kDeckSlots, Kind::kFresh);
    std::fill_n(kinds_.begin(), kRepeatSlots, Kind::kRepeat);
    std::fill_n(kinds_.begin() + kRepeatSlots, kPvcSlots, Kind::kPvc);
    std::fill_n(kinds_.begin() + kRepeatSlots + kPvcSlots, kTwinSlots,
                Kind::kTwin);
    kinds_next_ = kinds_.size();
    graphs_.resize(static_cast<std::size_t>(pool_size));
    std::iota(graphs_.begin(), graphs_.end(), 0);
    graphs_next_ = graphs_.size();
  }

  RequestSpec next() {
    const Kind slot = deal(kinds_, kinds_next_);
    RequestSpec r;
    if (slot == Kind::kRepeat && !recent_.empty()) {
      r = recent_[rng_.below(static_cast<std::uint32_t>(recent_.size()))];
      r.kind = Kind::kRepeat;
      r.twin = false;
      return r;
    }
    r.kind = slot == Kind::kPvc ? Kind::kPvc : Kind::kFresh;
    r.twin = slot == Kind::kTwin;
    r.graph = deal(graphs_, graphs_next_);
    r.branch_seed = next_seed_++;
    if (r.kind == Kind::kFresh) {
      if (recent_.size() < kRecent) {
        recent_.push_back(r);
      } else {
        recent_[ring_++ % kRecent] = r;
      }
    }
    return r;
  }

 private:
  /// The next card of `deck`, reshuffled (Fisher-Yates) once dealt out.
  template <typename T>
  T deal(std::vector<T>& deck, std::size_t& next) {
    if (next == deck.size()) {
      for (std::size_t i = deck.size(); i > 1; --i)
        std::swap(deck[i - 1], deck[rng_.below(static_cast<std::uint32_t>(i))]);
      next = 0;
    }
    return deck[next++];
  }

  static constexpr std::size_t kRecent = 32;
  gvc::util::Pcg32 rng_;
  std::uint64_t next_seed_;
  std::vector<Kind> kinds_;
  std::size_t kinds_next_ = 0;
  std::vector<int> graphs_;
  std::size_t graphs_next_ = 0;
  std::vector<RequestSpec> recent_;
  std::size_t ring_ = 0;
};

/// The daemon stack plus one connected client, set up as a unit.
struct Stack {
  std::unique_ptr<gvc::service::SolveService> service;
  std::unique_ptr<gvc::net::Server> server;
  std::unique_ptr<gvc::net::Client> client;
  double upload_bytes = 0.0;
  double upload_s = 0.0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (client) client->close();
    if (server) server->stop(5.0);
    if (service) service->shutdown();
  }
};

gvc::net::SolveRequestMsg request_msg(const RequestSpec& spec,
                                      const std::vector<Instance>& pool) {
  gvc::net::SolveRequestMsg msg;
  msg.graph_id = static_cast<std::uint64_t>(spec.graph) + 1;
  msg.config.branch_seed = spec.branch_seed;
  if (spec.kind == Kind::kPvc) {
    msg.config.problem = gvc::vc::Problem::kPvc;
    msg.config.k = pool[static_cast<std::size_t>(spec.graph)].optimum;
  }
  return msg;
}

bool answer_ok(const RequestSpec& spec, const Instance& inst,
               const gvc::net::ResultMsg& res) {
  if (res.status != 2 || res.outcome != gvc::vc::Outcome::kOptimal)
    return false;
  if (spec.kind == Kind::kPvc ? res.best_size > inst.optimum
                              : res.best_size != inst.optimum)
    return false;
  return is_cover(inst.graph, res.cover, res.best_size);
}

std::unique_ptr<Stack> set_up(const std::vector<Instance>& pool,
                              const CsrGraph& warm) {
  auto stack = std::make_unique<Stack>();
  gvc::service::ServiceOptions sopts;
  sopts.num_workers = kServiceWorkers;
  sopts.device = service_device();
  // The daemon's admission policy: a blocking submit would stall the
  // reactor for every connection.
  sopts.full_policy = gvc::service::JobQueue::FullPolicy::kReject;
  stack->service = std::make_unique<gvc::service::SolveService>(sopts);
  stack->server = std::make_unique<gvc::net::Server>(*stack->service,
                                                     gvc::net::ServerOptions{});
  std::string error;
  if (!stack->server->start(&error)) {
    std::fprintf(stderr, "serve_wire: server start failed: %s\n",
                 error.c_str());
    return nullptr;
  }
  stack->client = std::make_unique<gvc::net::Client>();
  if (!stack->client->connect("127.0.0.1", stack->server->port(), &error)) {
    std::fprintf(stderr, "serve_wire: connect failed: %s\n", error.c_str());
    return nullptr;
  }
  const std::uint64_t bytes0 =
      gvc::obs::Registry::global().counter_value("gvc_net_bytes_in_total");
  const double t0 = now_s();
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (!stack->client->upload_graph(i + 1, pool[i].graph)) return nullptr;
  stack->upload_s = now_s() - t0;
  stack->upload_bytes = static_cast<double>(
      gvc::obs::Registry::global().counter_value("gvc_net_bytes_in_total") -
      bytes0);
  if (!stack->client->upload_graph(kWarmGraphId, warm)) return nullptr;
  // Warm-up: distinct keys, so each is a real solve.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i <= 2 * kServiceWorkers; ++i) {
    gvc::net::SolveRequestMsg msg;
    msg.graph_id = kWarmGraphId;
    msg.config.branch_seed = kWarmSeed + static_cast<std::uint64_t>(i);
    ids.push_back(stack->client->submit(msg));
  }
  for (std::uint64_t id : ids) {
    gvc::net::ResultMsg res;
    if (id == 0 || !stack->client->wait_result(id, &res) || res.status != 2)
      return nullptr;
  }
  return stack;
}

/// What the open-loop phase of one measurement saw from the client side.
struct OpenLoop {
  std::vector<double> latency_ms;  ///< due -> result; failed requests +inf
  std::vector<double> late_ms;     ///< generator lateness per slot
  std::vector<double> accept_ms;   ///< submit -> Accepted
  /// send -> result of answered requests that were not coalesced: the
  /// requests the service's e2e histogram holds.
  std::vector<double> client_ms;
  std::uint64_t slots = 0;
  std::uint64_t sent = 0;
  std::uint64_t cache_hits = 0;  ///< Accepted frames flagged cache_hit
  std::uint64_t coalesced = 0;   ///< Accepted frames flagged coalesced
  double wall_s = 0.0;
};

class Generator {
 public:
  Generator(gvc::net::Client& client, const std::vector<Instance>& pool,
            RequestStream& stream, Report& report)
      : client_(client), pool_(pool), stream_(stream), report_(report) {}

  /// Closed loop with kWindow requests in flight for `seconds`; returns
  /// the completed requests per second, then drains.
  double saturate(double seconds) {
    trace::Span phase("bench.saturation");
    phase_span_ = phase.id();
    const double start = now_s();
    const double end = start + seconds;
    std::uint64_t done = 0;
    while (now_s() < end) {
      while (flights_.size() < kWindow) send(now_s(), nullptr);
      const std::uint64_t n = poll(nullptr);
      if (n == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
      done += n;
    }
    const double rate = static_cast<double>(done) / (now_s() - start);
    drain(nullptr);
    return rate;
  }

  /// Request slots due every 1/kOfferedRate seconds for `seconds`, sent
  /// when due; adds them to `out`.
  void open_loop(double seconds, OpenLoop& out) {
    trace::Span phase("bench.open_loop");
    phase_span_ = phase.id();
    const double start = now_s();
    const auto slots = static_cast<std::uint64_t>(kOfferedRate * seconds);
    for (std::uint64_t i = 0; i < slots;) {
      const double due = start + static_cast<double>(i) / kOfferedRate;
      const double now = now_s();
      if (now >= due) {
        out.late_ms.push_back((now - due) * 1e3);
        send(due, &out);
        ++i;
        continue;
      }
      if (poll(&out) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<long>(std::min(200.0, (due - now) * 1e6))));
    }
    drain(&out);
    out.slots += slots;
    out.wall_s += now_s() - start;
  }

 private:
  struct Flight {
    std::uint64_t id = 0;
    RequestSpec spec;
    gvc::net::AcceptedMsg accepted;
    double due = 0.0;
    double sent = 0.0;
    int lane = -1;
  };

  /// Sends the stream's next slot: one request, or a request and its copy.
  void send(double due, OpenLoop* open) {
    const RequestSpec spec = stream_.next();
    submit(spec, due, open);
    if (!spec.twin) return;
    RequestSpec copy = spec;
    copy.kind = Kind::kTwin;
    copy.twin = false;
    submit(copy, due, open);
  }

  /// One submission, up to its Accepted frame.
  void submit(const RequestSpec& spec, double due, OpenLoop* open) {
    Flight f;
    f.spec = spec;
    f.due = due;
    f.lane = take_lane(due);
    bool accepted = false;
    {
      trace::Span span("net.submit");
      f.sent = now_s();
      f.id = client_.submit(request_msg(spec, pool_));
      accepted = f.id != 0 && client_.wait_accepted(f.id, &f.accepted);
    }
    if (open != nullptr) {
      ++open->sent;
      if (accepted) {
        open->accept_ms.push_back((now_s() - f.sent) * 1e3);
        open->cache_hits += f.accepted.cache_hit ? 1 : 0;
        open->coalesced += f.accepted.coalesced ? 1 : 0;
      }
    }
    if (!accepted) {
      finish(f, nullptr, open);
      return;
    }
    flights_.push_back(f);
  }

  /// Polls every in-flight request once; returns how many completed.
  std::uint64_t poll(OpenLoop* open) {
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < flights_.size();) {
      gvc::net::ResultMsg res;
      bool failed = false;
      if (!client_.poll_result(flights_[i].id, &res, &failed)) {
        ++i;
        continue;
      }
      finish(flights_[i], failed ? nullptr : &res, open);
      flights_[i] = flights_.back();
      flights_.pop_back();
      ++completed;
    }
    return completed;
  }

  std::uint64_t drain(OpenLoop* open) {
    std::uint64_t completed = 0;
    while (!flights_.empty()) {
      const std::uint64_t n = poll(open);
      completed += n;
      if (n == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return completed;
  }

  void finish(const Flight& f, const gvc::net::ResultMsg* res,
              OpenLoop* open) {
    const double now = now_s();
    bool ok = false;
    {
      trace::Span span("bench.check");
      const bool twin_ok = f.spec.kind != Kind::kTwin || f.accepted.coalesced;
      ok = res != nullptr && twin_ok &&
           answer_ok(f.spec, pool_[static_cast<std::size_t>(f.spec.graph)], *res);
      report_.check(ok, "request on pool graph " + std::to_string(f.spec.graph) +
                            (res == nullptr ? ": no result"
                             : !twin_ok     ? ": copy not coalesced"
                                            : ": status " + std::to_string(res->status) +
                                                  " size " + std::to_string(res->best_size)));
    }
    trace::record_async("serve.request", phase_span_, f.id,
                        static_cast<std::uint64_t>(f.due * 1e9),
                        static_cast<std::uint64_t>(now * 1e9), f.lane);
    release_lane(f.lane, now);
    if (open == nullptr) return;
    open->latency_ms.push_back(
        ok ? (now - f.due) * 1e3 : std::numeric_limits<double>::infinity());
    if (ok && !f.accepted.coalesced) open->client_ms.push_back((now - f.sent) * 1e3);
  }

  // Trace lanes: a request span occupies a lane from due time to result,
  // and a lane is reused only by a request due after its last span ended.
  int take_lane(double due) {
    if (!trace::enabled()) return -1;
    for (std::size_t i = 0; i < lane_busy_.size(); ++i)
      if (!lane_busy_[i] && lane_end_[i] <= due) {
        lane_busy_[i] = true;
        return static_cast<int>(i);
      }
    lane_busy_.push_back(true);
    lane_end_.push_back(0.0);
    return static_cast<int>(lane_busy_.size() - 1);
  }
  void release_lane(int lane, double end) {
    if (lane < 0) return;
    lane_busy_[static_cast<std::size_t>(lane)] = false;
    lane_end_[static_cast<std::size_t>(lane)] = end;
  }

  gvc::net::Client& client_;
  const std::vector<Instance>& pool_;
  RequestStream& stream_;
  Report& report_;
  std::vector<Flight> flights_;
  std::uint64_t phase_span_ = 0;
  std::vector<bool> lane_busy_;
  std::vector<double> lane_end_;
};

/// Pings on the generator's connection until `stop` is set.
void ping_loop(gvc::net::Client& client, const std::atomic<bool>& stop,
               std::vector<double>& ping_us, Report& report) {
  while (!stop.load(std::memory_order_relaxed)) {
    {
      trace::Span span("net.ping");
      const double t0 = now_s();
      const bool ok = client.ping();
      ping_us.push_back((now_s() - t0) * 1e6);
      report.check(ok, "ping");
    }
    std::this_thread::sleep_for(kPingInterval);
  }
}

std::uint64_t registry_counter(const char* name) {
  return gvc::obs::Registry::global().counter_value(name);
}

/// Timed direct Sequential and Hybrid solves of the pool, on one worker's
/// slice with the service's config: the parallel/device/vc rows of this
/// workload.
void report_direct_layers(const std::vector<Instance>& pool, Report& report) {
  gvc::parallel::ParallelConfig config;
  config.device = service_device();
  std::vector<double> hybrid_ms, seq_ms, imbalance;
  std::uint64_t hybrid_nodes = 0, seq_nodes = 0, busy = 0;
  double hybrid_s = 0.0, seq_s = 0.0, sim_s = 0.0;
  gvc::util::ActivityAccumulator activities;
  for (const Instance& inst : pool) {
    double t0 = now_s();
    gvc::parallel::ParallelResult seq;
    {
      trace::Span span("parallel.solve.sequential");
      seq = gvc::parallel::solve(inst.graph, Method::kSequential, config);
    }
    const double seq_wall = now_s() - t0;
    report.check(seq.outcome == gvc::vc::Outcome::kOptimal &&
                     seq.best_size == inst.optimum &&
                     seq.tree_nodes == inst.seq_nodes &&
                     is_cover(inst.graph, seq.cover, seq.best_size),
                 "direct Sequential solve of pool graph");
    seq_ms.push_back(seq_wall * 1e3);
    seq_s += seq_wall;
    seq_nodes += seq.tree_nodes;

    t0 = now_s();
    gvc::parallel::ParallelResult r;
    {
      trace::Span span("parallel.solve.hybrid");
      r = gvc::parallel::solve(inst.graph, Method::kHybrid, config);
    }
    const double wall = now_s() - t0;
    report.check(r.outcome == gvc::vc::Outcome::kOptimal &&
                     r.best_size == inst.optimum &&
                     is_cover(inst.graph, r.cover, r.best_size),
                 "direct Hybrid solve of pool graph");
    hybrid_ms.push_back(wall * 1e3);
    hybrid_s += wall;
    hybrid_nodes += r.tree_nodes;
    busy += busy_ns(r.launch);
    sim_s += r.sim_seconds;
    imbalance.push_back(block_imbalance(r.launch));
    activities.merge(r.launch.merged_activities());
  }
  const double n = static_cast<double>(pool.size());
  report.layer("vc.seq_tree_nodes", static_cast<double>(seq_nodes), "count");
  report.layer("vc.seq_nodes_per_s", static_cast<double>(seq_nodes) / seq_s,
               "1/s");
  const ActivityShares shares = activity_shares(activities);
  report.layer("vc.reduce_frac", shares.reduce, "frac");
  report.layer("vc.find_max_frac", shares.find_max, "frac");
  report.layer("vc.branch_frac", shares.branch, "frac");
  report.layer("parallel.sequential.solves_per_s", n / seq_s, "1/s");
  report.layer("parallel.sequential.solve_ms_p50", quantile(seq_ms, 0.5), "ms");
  report.layer("parallel.hybrid.solves_per_s", n / hybrid_s, "1/s");
  report.layer("parallel.hybrid.solve_ms_p50", quantile(hybrid_ms, 0.5), "ms");
  report.layer("parallel.hybrid.tree_nodes", static_cast<double>(hybrid_nodes),
               "count");
  report.layer("parallel.hybrid.node_inflation",
               static_cast<double>(hybrid_nodes) / static_cast<double>(seq_nodes),
               "ratio");
  report.layer("parallel.hybrid.nodes_per_busy_s",
               static_cast<double>(hybrid_nodes) / (static_cast<double>(busy) * 1e-9),
               "1/s");
  report.layer("device.hybrid.imbalance", quantile(imbalance, 0.5), "ratio");
  report.layer("device.hybrid.sim_makespan_s", sim_s, "s");
  report.layer("device.hybrid.sim_to_wall", sim_s / hybrid_s, "ratio");
  report.layer("worklist.hybrid.terminate_frac", shares.terminate, "frac");
}

}  // namespace

int run_serve_wire(const RunOptions& opts, Report& report) {
  // ---- inputs: the pool, its reference answers, the request stream -------
  std::vector<Instance> pool;
  const auto families = pool_families();
  for (int i = 0; i < kPoolPerFamily; ++i)
    for (const Family& f : families)
      pool.push_back(draw_instance(f, sub_seed(opts.seed, pool.size())));
  std::uint64_t hash = kFnvBasis;
  for (const Instance& inst : pool) hash = hash_graph(hash, inst.graph);
  {
    RequestStream preview(opts.seed, static_cast<int>(pool.size()));
    for (int i = 0; i < 4096; ++i) {
      const RequestSpec r = preview.next();
      hash = hash_bytes(hash, &r.kind, sizeof(r.kind));
      hash = hash_bytes(hash, &r.graph, sizeof(r.graph));
      hash = hash_bytes(hash, &r.branch_seed, sizeof(r.branch_seed));
      hash = hash_bytes(hash, &r.twin, sizeof(r.twin));
    }
  }
  print_fingerprint(opts, pool.size(), hash);
  if (opts.fingerprint_only) return 0;

  // The warm-up graph is fixed, not drawn from the seed.
  const CsrGraph warm =
      gvc::graph::complement(gvc::graph::p_hat(120, 0.10, 0.40, 11));

  // ---- set-up: service, server, connect, uploads, warm-up ------------------
  std::unique_ptr<Stack> stack;
  bool setup_ok = true;
  const double setup_s = median_setup_seconds([&] {
    stack.reset();
    stack = set_up(pool, warm);
    setup_ok = setup_ok && stack != nullptr;
  });
  if (!setup_ok) {
    std::fprintf(stderr, "serve_wire: set-up failed\n");
    return 1;
  }

  RequestStream stream(opts.seed, static_cast<int>(pool.size()));
  Generator generator(*stack->client, pool, stream, report);
  const double run_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  // Service and wire counters summed over the open-loop windows only.
  struct Window {
    gvc::obs::Histogram::Snapshot queue_wait, solve, e2e;
    std::uint64_t cache_hits = 0, coalesced = 0, rejected = 0, busy_ns = 0;
    double frames = 0.0, bytes = 0.0;
  };
  const auto wire_totals = [] {
    return std::pair<double, double>(
        static_cast<double>(registry_counter("gvc_net_frames_in_total") +
                            registry_counter("gvc_net_frames_out_total")),
        static_cast<double>(registry_counter("gvc_net_bytes_in_total") +
                            registry_counter("gvc_net_bytes_out_total")));
  };
  struct Measurement {
    std::vector<double> saturation_rps;  ///< per round
    std::vector<double> p50_ms, p90_ms;  ///< per round, open loop
    std::vector<double> ping_us;
    OpenLoop open;  ///< every open-loop window
    Window window;
  };
  const auto measure = [&] {
    Measurement m;
    const double round_s = run_s / kRounds;
    for (int round = 0; round < kRounds; ++round) {
      {
        std::atomic<bool> stop{false};
        std::thread pinger([&] {
          ping_loop(*stack->client, stop, m.ping_us, report);
        });
        m.saturation_rps.push_back(generator.saturate(kSaturationShare * round_s));
        stop.store(true);
        pinger.join();
      }
      const gvc::service::ServiceStats before = stack->service->stats();
      const auto [frames0, bytes0] = wire_totals();
      const OpenLoop open0 = m.open;
      generator.open_loop((1.0 - kSaturationShare) * round_s, m.open);
      const gvc::service::ServiceStats after = stack->service->stats();
      const auto [frames1, bytes1] = wire_totals();
      const std::vector<double> latency(
          m.open.latency_ms.begin() +
              static_cast<std::ptrdiff_t>(open0.latency_ms.size()),
          m.open.latency_ms.end());
      m.p50_ms.push_back(quantile(latency, 0.50));
      m.p90_ms.push_back(quantile(latency, 0.90));

      Window& w = m.window;
      w.queue_wait.merge(hist_delta(before.queue_wait, after.queue_wait));
      w.solve.merge(hist_delta(before.solve_latency, after.solve_latency));
      w.e2e.merge(hist_delta(before.e2e_latency, after.e2e_latency));
      w.cache_hits += after.cache_hits - before.cache_hits;
      w.coalesced += after.coalesced - before.coalesced;
      w.rejected += after.rejected - before.rejected;
      w.busy_ns += busy_phase_ns(after) - busy_phase_ns(before);
      w.frames += frames1 - frames0;
      w.bytes += bytes1 - bytes0;
      // Every submission of the window is the generator's: the service's
      // counters must match what the Accepted frames reported.
      const std::uint64_t submitted = after.submitted - before.submitted;
      const std::uint64_t hits = after.cache_hits - before.cache_hits;
      const std::uint64_t coalesced = after.coalesced - before.coalesced;
      const std::uint64_t observed =
          after.e2e_latency.count - before.e2e_latency.count;
      const std::uint64_t sent = m.open.sent - open0.sent;
      const std::uint64_t sent_hits = m.open.cache_hits - open0.cache_hits;
      const std::uint64_t sent_coalesced = m.open.coalesced - open0.coalesced;
      report.check(submitted == sent && hits == sent_hits &&
                       coalesced == sent_coalesced &&
                       observed + coalesced == submitted,
                   "open-loop service counters (submitted " +
                       std::to_string(submitted) + ", hits " + std::to_string(hits) +
                       ", coalesced " + std::to_string(coalesced) +
                       ") differ from the client's " + std::to_string(sent) +
                       " sent, " + std::to_string(sent_hits) + " hits, " +
                       std::to_string(sent_coalesced) + " coalesced");
    }
    return m;
  };

  const Measurement base = measure();
  const double ops_per_s = quantile(base.saturation_rps, 0.5);
  std::printf("serve_wire: %d rounds; saturation %.1f req/s; open loop %llu "
              "requests in %llu slots at %.0f/s in %.2f s (%llu hits, %llu "
              "coalesced), p50 %.2f ms p90 %.2f ms (round medians)\n",
              kRounds, ops_per_s, static_cast<unsigned long long>(base.open.sent),
              static_cast<unsigned long long>(base.open.slots), kOfferedRate,
              base.open.wall_s, static_cast<unsigned long long>(base.open.cache_hits),
              static_cast<unsigned long long>(base.open.coalesced),
              quantile(base.p50_ms, 0.5), quantile(base.p90_ms, 0.5));
  for (int round = 0; round < kRounds; ++round)
    std::printf("  round %d: saturation %.1f req/s, p50 %.2f ms, p90 %.2f ms\n",
                round, base.saturation_rps[static_cast<std::size_t>(round)],
                base.p50_ms[static_cast<std::size_t>(round)],
                base.p90_ms[static_cast<std::size_t>(round)]);
  report.e2e("setup_s", setup_s, "s");
  report.e2e("ops_per_s", ops_per_s, "1/s");
  report.e2e("latency_p50_ms", quantile(base.p50_ms, 0.5), "ms");
  report.e2e("latency_p90_ms", quantile(base.p90_ms, 0.5), "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (!opts.trace) return 0;

  // ---- traced half: spans on, service/net deltas over its open loop -------
  trace::enable(true);
  const Measurement traced = measure();
  report_direct_layers(pool, report);
  std::vector<const CsrGraph*> graphs;
  for (const Instance& inst : pool) graphs.push_back(&inst.graph);
  const auto [parse_gps, parse_mbps] = time_corpus_parse(to_gspan(graphs), 0.2);
  trace::enable(false);

  const Window& w = traced.window;
  const double sent = static_cast<double>(traced.open.sent);
  const auto ms = [](const gvc::obs::Histogram::Snapshot& s, double q) {
    return static_cast<double>(s.quantile_ns(q)) / 1e6;
  };
  report.layer("service.queue_wait_ms_p50", ms(w.queue_wait, 0.50), "ms");
  report.layer("service.queue_wait_ms_p99", ms(w.queue_wait, 0.99), "ms");
  report.layer("service.solve_ms_p50", ms(w.solve, 0.50), "ms");
  report.layer("service.solve_ms_p99", ms(w.solve, 0.99), "ms");
  report.layer("service.e2e_ms_p50", ms(w.e2e, 0.50), "ms");
  report.layer("service.e2e_ms_p99", ms(w.e2e, 0.99), "ms");
  report.layer("service.cache_hit_frac", static_cast<double>(w.cache_hits) / sent,
               "frac");
  report.layer("service.coalesced_frac", static_cast<double>(w.coalesced) / sent,
               "frac");
  report.layer("service.rejected", static_cast<double>(w.rejected), "count");
  report.layer("service.worker_busy_frac",
               static_cast<double>(w.busy_ns) * 1e-9 /
                   (traced.open.wall_s * kServiceWorkers),
               "frac");
  report.layer("net.ping_rtt_us_p50", quantile(traced.ping_us, 0.50), "us");
  report.layer("net.ping_rtt_us_p99", quantile(traced.ping_us, 0.99), "us");
  report.layer("net.accept_ms_p50", quantile(traced.open.accept_ms, 0.50), "ms");
  report.layer("net.upload_mb_per_s", stack->upload_bytes / 1e6 / stack->upload_s,
               "MB/s");
  report.layer("net.bytes_per_request", w.bytes / sent, "B");
  report.layer("net.frames_per_request", w.frames / sent, "count");
  // Means, not medians: over one set of requests the difference of the
  // means is the mean per-request difference. (The service histogram's
  // buckets are ~9% wide, wider than the wire's share of a solve.)
  const std::vector<double>& client_ms = traced.open.client_ms;
  const double client_mean =
      client_ms.empty() ? 0.0
                        : std::accumulate(client_ms.begin(), client_ms.end(), 0.0) /
                              static_cast<double>(client_ms.size());
  report.layer("net.client_minus_server_ms_mean",
               client_mean - w.e2e.mean_seconds() * 1e3, "ms");
  report.layer("serve.generator_late_ms_p99", quantile(traced.open.late_ms, 0.99),
               "ms");
  report.layer("graph.corpus_parse_graphs_per_s", parse_gps, "1/s");
  report.layer("graph.corpus_parse_mb_per_s", parse_mbps, "MB/s");
  report.layer("bench.latency_p99_ms", quantile(base.open.latency_ms, 0.99), "ms");
  const double traced_ops_per_s = quantile(traced.saturation_rps, 0.5);
  report.layer("trace.untraced_ops_per_s", ops_per_s, "1/s");
  report.layer("trace.traced_ops_per_s", traced_ops_per_s, "1/s");
  report.layer("trace.overhead_frac", ops_per_s / traced_ops_per_s - 1.0, "frac");
  return 0;
}

}  // namespace perfbench

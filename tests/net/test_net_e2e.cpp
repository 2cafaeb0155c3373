// End-to-end serving tests: a real net::Server on a loopback ephemeral
// port, real net::Client connections, and a differential harness asserting
// the wire path is bit-identical to direct SolveService::submit() calls.
// The whole file runs under TSan in CI (reactor thread + worker threads +
// client reader threads + test threads).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/solve_service.hpp"

namespace gvc::net {
namespace {

// Fully serialized schedule: a 1-SM/1-block device, one launched block,
// shallow start frontier, tiny worklist — the same shape the differential
// suites use, so every method takes a reproducible path on a given graph
// and the wire/direct comparison below can demand bit-identity.
parallel::ParallelConfig deterministic_config() {
  parallel::ParallelConfig c;
  c.device = device::DeviceSpec::host_scaled();
  c.device.num_sms = 1;
  c.device.max_blocks_per_sm = 1;
  c.grid_override = 1;
  c.start_depth = 2;
  c.worklist_capacity = 128;
  return c;
}

constexpr parallel::Method kAllMethods[] = {
    parallel::Method::kSequential, parallel::Method::kStackOnly,
    parallel::Method::kHybrid, parallel::Method::kGlobalOnly,
    parallel::Method::kWorkStealing,
};

/// A daemon-in-a-fixture: SolveService + Server, deterministic options
/// (no device partitioning, reject on full shard — the daemon posture).
struct TestDaemon {
  explicit TestDaemon(int workers, ServerOptions nopts = {},
                      bool partition_device = false) {
    sopts.num_workers = workers;
    sopts.partition_device = partition_device;
    sopts.full_policy = service::JobQueue::FullPolicy::kReject;
    svc = std::make_unique<service::SolveService>(sopts);
    nopts.bind_address = "127.0.0.1";
    nopts.port = 0;
    server = std::make_unique<Server>(*svc, std::move(nopts));
    std::string error;
    started = server->start(&error);
    EXPECT_TRUE(started) << error;
  }
  ~TestDaemon() {
    server->stop(10.0);
    svc->shutdown();
  }

  int port() const { return server->port(); }

  service::ServiceOptions sopts;
  std::unique_ptr<service::SolveService> svc;
  std::unique_ptr<Server> server;
  bool started = false;
};

std::unique_ptr<Client> connect_to(const TestDaemon& d) {
  auto client = std::make_unique<Client>();
  std::string error;
  EXPECT_TRUE(client->connect("127.0.0.1", d.port(), &error)) << error;
  return client;
}

TEST(NetE2E, PingUploadStats) {
  TestDaemon daemon(2);
  auto client = connect_to(daemon);
  EXPECT_TRUE(client->ping());

  const auto g = graph::gnp(40, 0.2, 3);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(7, g, &ack, &err)) << err.message;
  EXPECT_EQ(ack.graph_id, 7u);
  EXPECT_EQ(ack.num_vertices, 40u);
  EXPECT_EQ(ack.num_edges, static_cast<std::uint64_t>(g.num_edges()));

  // Re-using a live graph id on the same connection is refused.
  EXPECT_FALSE(client->upload_graph(7, g, &ack, &err));
  EXPECT_EQ(err.code, ErrorCode::kDuplicateId);

  std::string stats;
  ASSERT_TRUE(client->stats_json(&stats));
  EXPECT_NE(stats.find("gvc_net_"), std::string::npos);
  client->close();
}

TEST(NetE2E, UploadByteBudgetPerConnection) {
  const auto g = graph::gnp(60, 0.2, 7);
  std::vector<std::uint8_t> blob;
  encode_upload_graph(blob, 1, g);

  // Budget fits one copy of the blob but not two.
  ServerOptions nopts;
  nopts.max_graph_bytes_per_connection = blob.size() + blob.size() / 2;
  TestDaemon daemon(1, std::move(nopts));
  auto client = connect_to(daemon);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(1, g, &ack, &err)) << err.message;
  EXPECT_FALSE(client->upload_graph(2, g, &ack, &err));
  EXPECT_EQ(err.code, ErrorCode::kNotAllowed);
  client->close();
}

TEST(NetE2E, UploadByteBudgetGlobalRefundedOnDisconnect) {
  const auto g = graph::gnp(60, 0.2, 7);
  std::vector<std::uint8_t> blob;
  encode_upload_graph(blob, 1, g);

  // Global budget fits two blobs but not three; per-connection stays ample.
  ServerOptions nopts;
  nopts.max_graph_bytes_total = 2 * blob.size() + blob.size() / 2;
  TestDaemon daemon(1, std::move(nopts));
  auto a = connect_to(daemon);
  auto b = connect_to(daemon);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(a->upload_graph(1, g, &ack, &err)) << err.message;
  ASSERT_TRUE(b->upload_graph(1, g, &ack, &err)) << err.message;
  EXPECT_FALSE(b->upload_graph(2, g, &ack, &err));
  EXPECT_EQ(err.code, ErrorCode::kNotAllowed);

  // Dropping A must refund its bytes, re-opening headroom for B.
  a->close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.server->open_connections() > 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(daemon.server->open_connections(), 1u);
  ASSERT_TRUE(b->upload_graph(2, g, &ack, &err)) << err.message;
  b->close();
}

// The tentpole acceptance: for all five methods, a solve routed through
// upload + wire frames returns the exact record a direct in-process
// submit() produces — same outcome, same cover, same tree shape.
TEST(NetE2E, DifferentialAllMethodsBitIdentical) {
  const auto g =
      std::make_shared<graph::CsrGraph>(graph::gnp(70, 0.12, 42));

  TestDaemon daemon(2);
  auto client = connect_to(daemon);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(1, *g, &ack, &err)) << err.message;

  // The direct reference runs in a SEPARATE service (separate cache!) so
  // the two paths cannot trivially share one solve.
  service::SolveService direct(daemon.sopts);

  for (parallel::Method m : kAllMethods) {
    SCOPED_TRACE(parallel::method_name(m));

    SolveRequestMsg req;
    req.graph_id = 1;
    req.method = m;
    req.config = deterministic_config();
    const std::uint64_t id = client->submit(req);
    ASSERT_NE(id, 0u);
    AcceptedMsg accepted;
    ASSERT_TRUE(client->wait_accepted(id, &accepted, &err)) << err.message;
    EXPECT_FALSE(accepted.rejected);
    ResultMsg wire;
    ASSERT_TRUE(client->wait_result(id, &wire, &err)) << err.message;
    ASSERT_EQ(wire.status,
              static_cast<std::uint8_t>(service::JobStatus::kDone));

    service::JobSpec spec;
    spec.graph = g;
    spec.method = m;
    spec.config = deterministic_config();
    const service::JobTicket ticket = direct.submit(std::move(spec));
    ASSERT_TRUE(ticket.valid());
    const parallel::ParallelResult& ref = direct.wait(ticket);

    EXPECT_EQ(wire.outcome, ref.outcome);
    EXPECT_EQ(wire.best_size, ref.best_size);
    EXPECT_EQ(wire.cover, ref.cover);
    EXPECT_EQ(wire.tree_nodes, ref.tree_nodes);
    EXPECT_EQ(wire.greedy_upper_bound, ref.greedy_upper_bound);
  }
  direct.shutdown();
  client->close();
}

// By-name submission resolves through the server's instance resolver; the
// result is identical to solving the same graph directly.
TEST(NetE2E, ByNameResolverDifferential) {
  const auto g =
      std::make_shared<graph::CsrGraph>(graph::gnp(60, 0.15, 9));
  ServerOptions nopts;
  nopts.instance_resolver =
      [g](const std::string& name)
      -> std::shared_ptr<const graph::CsrGraph> {
    return name == "g60" ? g : nullptr;
  };
  TestDaemon daemon(2, std::move(nopts));
  auto client = connect_to(daemon);

  SolveRequestMsg req;
  req.by_name = true;
  req.instance = "g60";
  req.method = parallel::Method::kHybrid;
  req.config = deterministic_config();
  const std::uint64_t id = client->submit(req);
  ResultMsg wire;
  ErrorMsg err;
  ASSERT_TRUE(client->wait_result(id, &wire, &err)) << err.message;
  ASSERT_EQ(wire.status, static_cast<std::uint8_t>(service::JobStatus::kDone));

  service::SolveService direct(daemon.sopts);
  service::JobSpec spec;
  spec.graph = g;
  spec.method = parallel::Method::kHybrid;
  spec.config = deterministic_config();
  // Keep the ticket alive past the comparisons: wait() returns a reference
  // into the ticket's JobState, and a temporary ticket would let the worker
  // free it mid-EXPECT.
  const service::JobTicket ticket = direct.submit(std::move(spec));
  const parallel::ParallelResult& ref = direct.wait(ticket);
  EXPECT_EQ(wire.cover, ref.cover);
  EXPECT_EQ(wire.tree_nodes, ref.tree_nodes);
  direct.shutdown();

  // Unknown names fail the one request, not the connection.
  SolveRequestMsg bad = req;
  bad.instance = "no-such-instance";
  const std::uint64_t bad_id = client->submit(bad);
  ASSERT_FALSE(client->wait_result(bad_id, &wire, &err));
  EXPECT_EQ(err.code, ErrorCode::kUnknownInstance);
  EXPECT_TRUE(client->ping());  // stream still healthy
  client->close();
}

// One connection multiplexing many concurrent jobs submitted from several
// threads — the async-ticket acceptance, and a TSan workout for the
// client's pending table and the server's completion bus.
TEST(NetE2E, MultiplexedConcurrentSubmitters) {
  const auto g =
      std::make_shared<graph::CsrGraph>(graph::gnp(50, 0.15, 21));
  TestDaemon daemon(4);
  auto client = connect_to(daemon);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(1, *g, &ack, &err)) << err.message;

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 24;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        SolveRequestMsg req;
        req.graph_id = 1;
        req.method = kAllMethods[(t + i) % 5];
        req.config = deterministic_config();
        // 4 distinct seeds -> plenty of coalescing and cache traffic.
        req.config.branch_seed = static_cast<std::uint64_t>(i % 4);
        const std::uint64_t id = client->submit(req);
        ResultMsg res;
        ErrorMsg e;
        if (id == 0 || !client->wait_result(id, &res, &e) ||
            res.status !=
                static_cast<std::uint8_t>(service::JobStatus::kDone) ||
            res.best_size < 0)
          ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  client->close();
}

// Cancellation over the wire: with one worker, a filler occupies the shard
// and the target sits queued, so the cancel lands deterministically and
// comes back as kCancelled.
TEST(NetE2E, CancelOverWire) {
  const auto g =
      std::make_shared<graph::CsrGraph>(graph::gnp(90, 0.12, 33));
  TestDaemon daemon(1);
  auto client = connect_to(daemon);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(1, *g, &ack, &err)) << err.message;

  SolveRequestMsg filler;
  filler.graph_id = 1;
  filler.config = deterministic_config();
  filler.config.branch_seed = 1;
  SolveRequestMsg target = filler;
  target.config.branch_seed = 2;  // distinct key: no coalescing, no cache

  const std::uint64_t filler_id = client->submit(filler);
  const std::uint64_t target_id = client->submit(target);
  ASSERT_NE(target_id, 0u);

  bool hit = false;
  ASSERT_TRUE(client->cancel(target_id, &hit));
  EXPECT_TRUE(hit);

  // Cancelling an unknown ticket is a request-scoped error.
  EXPECT_FALSE(client->cancel(9999, &hit));

  ResultMsg res;
  ASSERT_TRUE(client->wait_result(target_id, &res, &err)) << err.message;
  EXPECT_EQ(res.status,
            static_cast<std::uint8_t>(service::JobStatus::kCancelled));
  EXPECT_EQ(res.outcome, vc::Outcome::kCancelled);

  ASSERT_TRUE(client->wait_result(filler_id, &res, &err)) << err.message;
  EXPECT_EQ(res.status, static_cast<std::uint8_t>(service::JobStatus::kDone));
  client->close();
}

// Deadline over the wire: a microsecond budget is spent before admission
// finishes stamping it, so the job expires and reports kDeadline.
TEST(NetE2E, DeadlineExpiryOverWire) {
  const auto g =
      std::make_shared<graph::CsrGraph>(graph::gnp(60, 0.15, 5));
  TestDaemon daemon(1);
  auto client = connect_to(daemon);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(1, *g, &ack, &err)) << err.message;

  SolveRequestMsg req;
  req.graph_id = 1;
  req.config = deterministic_config();
  req.deadline_s = 1e-6;
  const std::uint64_t id = client->submit(req);
  ResultMsg res;
  ASSERT_TRUE(client->wait_result(id, &res, &err)) << err.message;
  EXPECT_EQ(res.status,
            static_cast<std::uint8_t>(service::JobStatus::kExpired));
  EXPECT_EQ(res.outcome, vc::Outcome::kDeadline);
  client->close();
}

// A dropped connection abandons its jobs: queued owned tickets are
// cancelled (PR 3 dead-owner path reclaims the cache registrations) and
// the abandonment is visible in the gvc_net metrics.
TEST(NetE2E, DisconnectAbandonsInflightJobs) {
  const auto g =
      std::make_shared<graph::CsrGraph>(graph::gnp(90, 0.12, 77));
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t abandoned_before =
      reg.counter_value("gvc_net_disconnect_abandoned_total");

  TestDaemon daemon(1);
  {
    auto client = connect_to(daemon);
    GraphAckMsg ack;
    ErrorMsg err;
    ASSERT_TRUE(client->upload_graph(1, *g, &ack, &err)) << err.message;
    SolveRequestMsg req;
    req.graph_id = 1;
    req.config = deterministic_config();
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      req.config.branch_seed = seed;  // distinct jobs: 1 running + 3 queued
      AcceptedMsg accepted;
      const std::uint64_t id = client->submit(req);
      ASSERT_TRUE(client->wait_accepted(id, &accepted, &err)) << err.message;
    }
    client->close();  // vanish without collecting anything
  }

  // The reactor notices the EOF and abandons; the worker drains what was
  // already running. Poll rather than sleep — TSan makes everything slow.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (daemon.server->jobs_inflight() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(daemon.server->jobs_inflight(), 0u);
  EXPECT_GE(reg.counter_value("gvc_net_disconnect_abandoned_total"),
            abandoned_before + 4);
  // At least the queued (never-started) jobs were cancelled outright.
  // The cancelled stat lags the inflight gauge: the reactor decrements
  // jobs_inflight at abandon time, but gvc_service_jobs_cancelled_total
  // is only bumped when the worker dequeues the dead queued job (the
  // terminal-before-ran sweep in SolveService), so poll for it too.
  while (daemon.svc->stats().cancelled < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(daemon.svc->stats().cancelled, 3u);
}

// Graceful shutdown over the wire: admission closes, in-flight work
// completes, new solves are refused with kShuttingDown.
TEST(NetE2E, RemoteShutdownDrains) {
  const auto g =
      std::make_shared<graph::CsrGraph>(graph::gnp(50, 0.15, 11));
  ServerOptions nopts;
  nopts.allow_remote_shutdown = true;
  TestDaemon daemon(2, std::move(nopts));
  auto client = connect_to(daemon);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(1, *g, &ack, &err)) << err.message;

  SolveRequestMsg req;
  req.graph_id = 1;
  req.config = deterministic_config();
  const std::uint64_t id = client->submit(req);

  ASSERT_TRUE(client->request_shutdown(&err)) << err.message;
  EXPECT_TRUE(daemon.server->shutdown_requested());

  // The pre-shutdown job still completes...
  ResultMsg res;
  ASSERT_TRUE(client->wait_result(id, &res, &err)) << err.message;
  EXPECT_EQ(res.status, static_cast<std::uint8_t>(service::JobStatus::kDone));

  // ...new admissions are refused.
  const std::uint64_t late = client->submit(req);
  ASSERT_FALSE(client->wait_result(late, &res, &err));
  EXPECT_EQ(err.code, ErrorCode::kShuttingDown);
  client->close();
}

TEST(NetE2E, ShutdownWithoutPermissionRefused) {
  TestDaemon daemon(1);
  auto client = connect_to(daemon);
  ErrorMsg err;
  EXPECT_FALSE(client->request_shutdown(&err));
  EXPECT_EQ(err.code, ErrorCode::kNotAllowed);
  EXPECT_FALSE(daemon.server->shutdown_requested());
  client->close();
}

// Polling over the wire: with one worker, a filler that cannot finish within
// the test occupies the shard, so the polled job is still queued when its
// Poll frame arrives. Cancelling the filler then lets the job run.
TEST(NetE2E, PollStatusLifecycle) {
  TestDaemon daemon(1);
  auto client = connect_to(daemon);
  GraphAckMsg ack;
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(1, graph::gnp(50, 0.15, 13), &ack, &err))
      << err.message;
  // An exact MVC of G(200, 0.2) takes far longer than this test may run.
  ASSERT_TRUE(client->upload_graph(2, graph::gnp(200, 0.2, 1), &ack, &err))
      << err.message;

  SolveRequestMsg filler;
  filler.graph_id = 2;
  filler.config = deterministic_config();
  const std::uint64_t filler_id = client->submit(filler);
  AcceptedMsg accepted;
  ASSERT_TRUE(client->wait_accepted(filler_id, &accepted, &err))
      << err.message;

  SolveRequestMsg req;
  req.graph_id = 1;
  req.config = deterministic_config();
  const std::uint64_t id = client->submit(req);
  ASSERT_TRUE(client->wait_accepted(id, &accepted, &err)) << err.message;

  StatusReplyMsg status;
  ASSERT_TRUE(client->poll_status(id, &status));
  EXPECT_TRUE(status.known);
  EXPECT_EQ(status.status,
            static_cast<std::uint8_t>(service::JobStatus::kQueued));

  bool hit = false;
  ASSERT_TRUE(client->cancel(filler_id, &hit));
  EXPECT_TRUE(hit);
  ResultMsg res;
  ASSERT_TRUE(client->wait_result(filler_id, &res, &err)) << err.message;
  EXPECT_EQ(res.status,
            static_cast<std::uint8_t>(service::JobStatus::kCancelled));

  ASSERT_TRUE(client->wait_result(id, &res, &err)) << err.message;
  EXPECT_EQ(res.status, static_cast<std::uint8_t>(service::JobStatus::kDone));

  // After the Result frame the server forgets the ticket.
  ASSERT_TRUE(client->poll_status(id, &status));
  EXPECT_FALSE(status.known);
  client->close();
}

/// A tweak of a good request that the daemon must refuse with `code`.
struct BadSolve {
  const char* what;
  std::function<void(SolveRequestMsg&)> tweak;
  ErrorCode code;
};

/// Sends every bad request, checks each gets its error frame, then checks a
/// normal solve on the same connection still completes.
void expect_refused_then_served(const TestDaemon& daemon,
                                const SolveRequestMsg& good,
                                const std::vector<BadSolve>& bad) {
  auto client = connect_to(daemon);
  ErrorMsg err;
  ASSERT_TRUE(client->upload_graph(good.graph_id, graph::gnp(40, 0.2, 3),
                                   nullptr, &err))
      << err.message;
  ResultMsg res;
  for (const BadSolve& b : bad) {
    SolveRequestMsg req = good;
    b.tweak(req);
    ASSERT_FALSE(client->wait_result(client->submit(req), &res, &err))
        << b.what;
    EXPECT_EQ(err.code, b.code) << b.what << ": " << err.message;
  }
  ASSERT_TRUE(client->wait_result(client->submit(good), &res, &err))
      << err.message;
  EXPECT_EQ(res.status, static_cast<std::uint8_t>(service::JobStatus::kDone));
  client->close();
}

TEST(NetE2E, UnplannableRequestsRefusedOnPartitionedDevice) {
  // The default daemon posture: every job runs on its worker's slice of
  // the machine's device. Each request below used to abort the daemon at
  // plan time, or start a thread per requested block.
  TestDaemon daemon(2, {}, /*partition_device=*/true);
  SolveRequestMsg good;
  good.graph_id = 1;
  expect_refused_then_served(daemon, good, {
      {"StackOnly start_depth at the decoder ceiling", [](auto& r) {
         r.method = parallel::Method::kStackOnly;
         r.config.start_depth = kMaxStartDepth;
       }, ErrorCode::kBadPayload},
      {"block size above the hardware limit",
       [](auto& r) { r.config.block_size_override = 1 << 20; },
       ErrorCode::kBadPayload},
      {"PVC with k = 0",
       [](auto& r) { r.config.problem = vc::Problem::kPvc; },
       ErrorCode::kBadPayload},
      {"grid_override above the thread cap",
       [](auto& r) { r.config.grid_override = 2 * kMaxSolveThreads; },
       ErrorCode::kNotAllowed},
  });
}

TEST(NetE2E, UnplannableRequestsRefusedOnSubmittedDevice) {
  // --no-partition: the submitted device spec runs verbatim, so its fields
  // and the plan's resident grid come from the client.
  TestDaemon daemon(1);
  SolveRequestMsg good;
  good.graph_id = 1;
  good.config = deterministic_config();
  const auto big_device = [](SolveRequestMsg& r) {
    r.config.device.num_sms = 4 * kMaxSolveThreads;
    r.config.device.max_blocks_per_sm = 2;
    r.config.grid_override = 0;
  };
  expect_refused_then_served(daemon, good, {
      {"zero shared memory per block",
       [](auto& r) { r.config.device.shared_mem_per_block_bytes = 0; },
       ErrorCode::kBadPayload},
      {"fewer threads per SM than per block",
       [](auto& r) { r.config.device.max_threads_per_sm = 1; },
       ErrorCode::kBadPayload},
      {"no stack fits global memory",
       [](auto& r) { r.config.device.global_mem_bytes = 64; },
       ErrorCode::kBadPayload},
      {"plan's cooperative grid above the thread cap", big_device,
       ErrorCode::kNotAllowed},
      {"StackOnly resident slots above the thread cap", [&](auto& r) {
         big_device(r);
         r.method = parallel::Method::kStackOnly;
         r.config.start_depth = 12;
       }, ErrorCode::kNotAllowed},
  });
}

}  // namespace
}  // namespace gvc::net

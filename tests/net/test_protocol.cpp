#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"

namespace gvc::net {
namespace {

// ---------------------------------------------------------------------------
// Typed round trips.
// ---------------------------------------------------------------------------

TEST(Protocol, SolveRequestRoundTrip) {
  SolveRequestMsg m;
  m.by_name = true;
  m.instance = "p_hat_300_1";
  m.method = parallel::Method::kWorkStealing;
  m.config.problem = vc::Problem::kPvc;
  m.config.k = 17;
  m.config.branch = vc::BranchStrategy::kMinDegree;
  m.config.branch_seed = 0xFEEDFACEull;
  m.config.rules.high_degree = false;
  m.config.grid_override = 3;
  m.config.start_depth = 9;
  m.config.worklist_capacity = 512;
  m.config.worklist_threshold_frac = 0.25;
  m.config.block_size_override = 128;
  m.limits.time_limit_s = 1.5;
  m.limits.max_tree_nodes = 1000;
  m.priority = -3;
  m.deadline_s = 2.5;

  std::vector<std::uint8_t> payload;
  encode_solve_request(payload, m);
  SolveRequestMsg d;
  ASSERT_TRUE(decode_solve_request(payload, &d));
  EXPECT_EQ(d.by_name, m.by_name);
  EXPECT_EQ(d.instance, m.instance);
  EXPECT_EQ(d.method, m.method);
  EXPECT_EQ(d.config.problem, m.config.problem);
  EXPECT_EQ(d.config.k, m.config.k);
  EXPECT_EQ(d.config.branch, m.config.branch);
  EXPECT_EQ(d.config.branch_seed, m.config.branch_seed);
  EXPECT_EQ(d.config.rules.high_degree, false);
  EXPECT_EQ(d.config.grid_override, 3);
  EXPECT_EQ(d.config.start_depth, 9);
  EXPECT_EQ(d.config.worklist_capacity, 512u);
  EXPECT_DOUBLE_EQ(d.config.worklist_threshold_frac, 0.25);
  EXPECT_EQ(d.config.block_size_override, 128);
  EXPECT_DOUBLE_EQ(d.limits.time_limit_s, 1.5);
  EXPECT_EQ(d.limits.max_tree_nodes, 1000u);
  EXPECT_EQ(d.priority, -3);
  EXPECT_DOUBLE_EQ(d.deadline_s, 2.5);
  // The device spec travels too (name excepted — it becomes "remote").
  EXPECT_EQ(d.config.device.num_sms, m.config.device.num_sms);
  EXPECT_EQ(d.config.device.global_mem_bytes, m.config.device.global_mem_bytes);
}

TEST(Protocol, ResultRoundTrip) {
  ResultMsg m;
  m.status = 2;
  m.outcome = vc::Outcome::kCancelled;
  m.best_size = 41;
  m.cover = {1, 5, 9, 200};
  m.tree_nodes = 123456789ull;
  m.seconds = 0.75;
  m.sim_seconds = 0.125;
  m.greedy_upper_bound = 50;

  std::vector<std::uint8_t> payload;
  encode_result(payload, m);
  ResultMsg d;
  ASSERT_TRUE(decode_result(payload, &d));
  EXPECT_EQ(d.status, m.status);
  EXPECT_EQ(d.outcome, m.outcome);
  EXPECT_EQ(d.best_size, m.best_size);
  EXPECT_EQ(d.cover, m.cover);
  EXPECT_EQ(d.tree_nodes, m.tree_nodes);
  EXPECT_DOUBLE_EQ(d.seconds, m.seconds);
  EXPECT_DOUBLE_EQ(d.sim_seconds, m.sim_seconds);
  EXPECT_EQ(d.greedy_upper_bound, m.greedy_upper_bound);
}

TEST(Protocol, SmallMessagesRoundTrip) {
  std::vector<std::uint8_t> p;

  encode_accepted(p, {77, true, false, true});
  AcceptedMsg a;
  ASSERT_TRUE(decode_accepted(p, &a));
  EXPECT_EQ(a.job_id, 77u);
  EXPECT_TRUE(a.cache_hit);
  EXPECT_FALSE(a.coalesced);
  EXPECT_TRUE(a.rejected);

  p.clear();
  encode_cancel(p, {0xABCDull});
  CancelMsg c;
  ASSERT_TRUE(decode_cancel(p, &c));
  EXPECT_EQ(c.target_request_id, 0xABCDull);

  p.clear();
  encode_cancel_ack(p, {true});
  CancelAckMsg ca;
  ASSERT_TRUE(decode_cancel_ack(p, &ca));
  EXPECT_TRUE(ca.hit);

  p.clear();
  encode_status_reply(p, {true, 4});
  StatusReplyMsg s;
  ASSERT_TRUE(decode_status_reply(p, &s));
  EXPECT_TRUE(s.known);
  EXPECT_EQ(s.status, 4);

  p.clear();
  encode_error(p, {ErrorCode::kUnknownGraph, "no such graph"});
  ErrorMsg e;
  ASSERT_TRUE(decode_error(p, &e));
  EXPECT_EQ(e.code, ErrorCode::kUnknownGraph);
  EXPECT_EQ(e.message, "no such graph");

  p.clear();
  encode_stats_reply(p, "{\"x\":1}");
  std::string stats;
  ASSERT_TRUE(decode_stats_reply(p, &stats));
  EXPECT_EQ(stats, "{\"x\":1}");

  p.clear();
  encode_graph_ack(p, {9, 0xDEADull, 100, 450});
  GraphAckMsg g;
  ASSERT_TRUE(decode_graph_ack(p, &g));
  EXPECT_EQ(g.graph_id, 9u);
  EXPECT_EQ(g.canonical_hash, 0xDEADull);
  EXPECT_EQ(g.num_vertices, 100u);
  EXPECT_EQ(g.num_edges, 450u);
}

// ---------------------------------------------------------------------------
// Graph blob codec + structural validation of hostile payloads.
// ---------------------------------------------------------------------------

TEST(Protocol, GraphBlobRoundTrip) {
  const auto g = graph::gnp(80, 0.15, 5);
  std::vector<std::uint8_t> payload;
  encode_upload_graph(payload, 31, g);

  std::uint64_t id = 0;
  graph::CsrGraph out;
  std::string why;
  ASSERT_TRUE(decode_upload_graph(payload, &id, &out, &why)) << why;
  EXPECT_EQ(id, 31u);
  EXPECT_EQ(out, g);
}

// Hand-builds a blob from raw arrays, bypassing CsrGraph validation — the
// attacker's view of the codec.
std::vector<std::uint8_t> raw_blob(std::uint64_t id,
                                   const std::vector<std::int64_t>& offsets,
                                   const std::vector<std::uint32_t>& adjacency) {
  std::vector<std::uint8_t> payload;
  ByteWriter w(payload);
  w.u64(id);
  w.u32(static_cast<std::uint32_t>(offsets.size() - 1));
  w.u64(adjacency.size());
  for (std::int64_t o : offsets) w.i64(o);
  for (std::uint32_t u : adjacency) w.u32(u);
  return payload;
}

TEST(Protocol, GraphBlobRejectsStructuralViolations) {
  std::uint64_t id;
  graph::CsrGraph g;
  std::string why;
  const auto rejects = [&](const std::vector<std::int64_t>& offsets,
                           const std::vector<std::uint32_t>& adjacency) {
    why.clear();
    const bool ok = decode_upload_graph(raw_blob(1, offsets, adjacency),
                                        &id, &g, &why);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(why.empty());
  };

  rejects({0, 1, 3}, {1, 0});     // offsets end != arc count
  rejects({0, 2, 1}, {1, 0});     // decreasing offsets
  rejects({1, 2, 3}, {1, 0});     // offsets[0] != 0
  rejects({0, 1, 2}, {1, 2});     // neighbor id out of range
  rejects({0, 1, 2}, {0, 1});     // self-loop at v0
  rejects({0, 2, 2}, {1, 1});     // duplicate neighbor
}

TEST(Protocol, GraphBlobRejectsAsymmetry) {
  // v0 -> v1 without the reverse arc.
  std::uint64_t id;
  graph::CsrGraph g;
  std::string why;
  EXPECT_FALSE(
      decode_upload_graph(raw_blob(1, {0, 1, 1, 2}, {1, 0}), &id, &g, &why));
}

TEST(Protocol, GraphBlobRejectsLengthMismatch) {
  // Header promises more adjacency words than the payload carries: must be
  // rejected by the size cross-check BEFORE any allocation of n+1 offsets.
  std::vector<std::uint8_t> payload;
  ByteWriter w(payload);
  w.u64(1);
  w.u32(0xFFFFFFF0u);              // ~4B vertices...
  w.u64(0xFFFFFFFFFFFFull);        // ...and absurd arc count, 12 bytes total
  std::uint64_t id;
  graph::CsrGraph g;
  std::string why;
  EXPECT_FALSE(decode_upload_graph(payload, &id, &g, &why));
}

TEST(Protocol, GraphBlobRejectsOverflowingArcCount) {
  // arcs = 2^62 makes `arcs * 4` wrap u64 to 0, so a multiply-form size
  // cross-check computes expect == 8 and a 28-byte frame would demand a
  // 2^62-entry adjacency vector (bad_alloc on the reactor). The division-
  // form guard must reject before any allocation.
  std::vector<std::uint8_t> payload;
  ByteWriter w(payload);
  w.u64(1);                   // graph id
  w.u32(0);                   // n = 0
  w.u64(1ull << 62);          // arcs: arcs * 4 == 0 (mod 2^64)
  w.i64(0);                   // offsets[0] — remaining == 8 == wrapped expect
  std::uint64_t id;
  graph::CsrGraph g;
  std::string why;
  EXPECT_FALSE(decode_upload_graph(payload, &id, &g, &why));
  EXPECT_FALSE(why.empty());
}

// ---------------------------------------------------------------------------
// Enum-range and truncation rejection.
// ---------------------------------------------------------------------------

TEST(Protocol, SolveRequestRejectsOutOfRangeEnums) {
  SolveRequestMsg m;
  std::vector<std::uint8_t> payload;
  encode_solve_request(payload, m);

  // Flip every byte position to 0xEE in turn; decode must never crash and
  // must reject at least the frames whose enums leave their ranges. (Most
  // positions still decode fine — the point is memory safety plus the
  // range checks actually firing somewhere.)
  int rejected = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::vector<std::uint8_t> mutated = payload;
    mutated[i] = 0xEE;
    SolveRequestMsg d;
    if (!decode_solve_request(mutated, &d)) ++rejected;
  }
  EXPECT_GT(rejected, 0);

  // Directed check: method byte beyond kWorkStealing. With by_name=false
  // the layout starts u8 by_name + u64 graph_id, so method sits at byte 9.
  SolveRequestMsg d;
  std::vector<std::uint8_t> bad = payload;
  bad[9] = 0x7F;
  EXPECT_FALSE(decode_solve_request(bad, &d));
}

TEST(Protocol, OldLayoutSolveRequestRejected) {
  // Three retired layouts, all longer than today's, must be rejected as
  // malformed, never misread or crash. With by_name=false today's
  // block-size override sits at offset 27 (u8 by_name, u64 graph_id,
  // u8 method, u8 problem, i32 k, u8 semantics, u8 rules, u8 branch,
  // u64 seed, u8 branch_state). All three old layouts put a u8 reduce-kernel
  // dispatch byte at offset 27; the two older ones also a u8
  // maximum-degree backend at 28, and the oldest an i32 WorkStealing
  // advertisement interval at 29.
  SolveRequestMsg m;
  m.config.k = 5;
  std::vector<std::uint8_t> payload;
  encode_solve_request(payload, m);
  SolveRequestMsg d;
  ASSERT_TRUE(decode_solve_request(payload, &d));

  for (std::uint8_t dispatch : {0, 1}) {
    SCOPED_TRACE("dispatch=" + std::to_string(dispatch));
    std::vector<std::uint8_t> with_dispatch = payload;
    with_dispatch.insert(with_dispatch.begin() + 27, dispatch);
    ASSERT_EQ(with_dispatch.size(), payload.size() + 1);
    EXPECT_FALSE(decode_solve_request(with_dispatch, &d));

    std::vector<std::uint8_t> with_backend = with_dispatch;
    with_backend.insert(with_backend.begin() + 28, std::uint8_t{0});
    EXPECT_FALSE(decode_solve_request(with_backend, &d));

    for (std::uint8_t interval : {0, 4}) {
      std::vector<std::uint8_t> with_interval = with_backend;
      const std::uint8_t field[4] = {interval, 0, 0, 0};
      with_interval.insert(with_interval.begin() + 29, field, field + 4);
      ASSERT_EQ(with_interval.size(), payload.size() + 6);
      EXPECT_FALSE(decode_solve_request(with_interval, &d))
          << "interval=" << int{interval};
    }
  }
}

TEST(Protocol, TruncationNeverCrashesAnyDecoder) {
  // Every decoder, fed every truncation of a valid payload, must return
  // false (or true only for the full length) without crashing.
  const auto g = graph::cycle(12);

  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.emplace_back();
  encode_upload_graph(payloads.back(), 3, g);
  payloads.emplace_back();
  {
    SolveRequestMsg m;
    m.by_name = true;
    m.instance = "x";
    encode_solve_request(payloads.back(), m);
  }
  payloads.emplace_back();
  {
    ResultMsg m;
    m.cover = {1, 2, 3};
    encode_result(payloads.back(), m);
  }

  for (const auto& full : payloads) {
    for (std::size_t len = 0; len < full.size(); ++len) {
      const std::vector<std::uint8_t> cut(full.begin(),
                                          full.begin() + static_cast<long>(len));
      std::uint64_t id;
      graph::CsrGraph cg;
      std::string why;
      SolveRequestMsg sm;
      ResultMsg rm;
      AcceptedMsg am;
      ErrorMsg em;
      decode_upload_graph(cut, &id, &cg, &why);
      decode_solve_request(cut, &sm);
      decode_result(cut, &rm);
      decode_accepted(cut, &am);
      decode_error(cut, &em);
    }
  }
  SUCCEED();
}

TEST(Protocol, TrailingGarbageRejected) {
  // The decoders demand exact consumption: one extra byte fails.
  std::vector<std::uint8_t> p;
  encode_cancel(p, {5});
  p.push_back(0);
  CancelMsg c;
  EXPECT_FALSE(decode_cancel(p, &c));
}

TEST(Protocol, OpNamesAndRequestClassification) {
  EXPECT_STREQ(op_name(Op::kSolve), "solve");
  EXPECT_TRUE(is_request_op(static_cast<std::uint8_t>(Op::kSolve)));
  EXPECT_FALSE(is_request_op(static_cast<std::uint8_t>(Op::kResult)));
  EXPECT_FALSE(is_request_op(0));
  EXPECT_STREQ(error_code_name(ErrorCode::kUnknownTicket), "unknown-ticket");
}

}  // namespace
}  // namespace gvc::net

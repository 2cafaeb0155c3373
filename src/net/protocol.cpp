#include "net/protocol.hpp"

#include <algorithm>

namespace gvc::net {

namespace {

void encode_device(ByteWriter& w, const device::DeviceSpec& d) {
  // The spec's display name is cosmetic (not part of the config hash); the
  // daemon substitutes its own label on decode.
  w.i32(d.num_sms);
  w.i32(d.max_threads_per_block);
  w.i32(d.max_threads_per_sm);
  w.i32(d.max_blocks_per_sm);
  w.i64(d.shared_mem_per_sm_bytes);
  w.i64(d.shared_mem_per_block_bytes);
  w.i64(d.global_mem_bytes);
}

bool decode_device(ByteReader& r, device::DeviceSpec* d) {
  d->name = "remote";
  d->num_sms = r.i32();
  d->max_threads_per_block = r.i32();
  d->max_threads_per_sm = r.i32();
  d->max_blocks_per_sm = r.i32();
  d->shared_mem_per_sm_bytes = r.i64();
  d->shared_mem_per_block_bytes = r.i64();
  d->global_mem_bytes = r.i64();
  if (!r.ok()) return false;
  if (d->num_sms < 1 || d->num_sms > kMaxDeviceSms) return false;
  if (d->max_threads_per_block < 1 ||
      d->max_threads_per_block > kMaxDeviceThreads)
    return false;
  if (d->max_threads_per_sm < 1 || d->max_threads_per_sm > kMaxDeviceThreads)
    return false;
  if (d->max_blocks_per_sm < 1 || d->max_blocks_per_sm > kMaxDeviceThreads)
    return false;
  if (d->shared_mem_per_sm_bytes < 0 || d->shared_mem_per_block_bytes < 0 ||
      d->global_mem_bytes < 0)
    return false;
  return true;
}

std::uint8_t rules_mask(const vc::RuleSet& rules) {
  return static_cast<std::uint8_t>((rules.degree_one ? 1u : 0u) |
                                   (rules.degree_two_triangle ? 2u : 0u) |
                                   (rules.high_degree ? 4u : 0u));
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kUploadGraph: return "upload-graph";
    case Op::kSolve: return "solve";
    case Op::kCancel: return "cancel";
    case Op::kPoll: return "poll";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
    case Op::kPong: return "pong";
    case Op::kGraphAck: return "graph-ack";
    case Op::kAccepted: return "accepted";
    case Op::kResult: return "result";
    case Op::kCancelAck: return "cancel-ack";
    case Op::kStatusReply: return "status-reply";
    case Op::kStatsReply: return "stats-reply";
    case Op::kShutdownAck: return "shutdown-ack";
    case Op::kError: return "error";
  }
  return "?";
}

bool is_request_op(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(Op::kPing) &&
         op <= static_cast<std::uint8_t>(Op::kShutdown);
}

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadVersion: return "bad-version";
    case ErrorCode::kFrameTooLarge: return "frame-too-large";
    case ErrorCode::kBadFrame: return "bad-frame";
    case ErrorCode::kBadOpcode: return "bad-opcode";
    case ErrorCode::kBadPayload: return "bad-payload";
    case ErrorCode::kUnknownGraph: return "unknown-graph";
    case ErrorCode::kUnknownInstance: return "unknown-instance";
    case ErrorCode::kBadGraph: return "bad-graph";
    case ErrorCode::kDuplicateId: return "duplicate-id";
    case ErrorCode::kUnknownTicket: return "unknown-ticket";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kNotAllowed: return "not-allowed";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kConnectionLost: return "connection-lost";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Graph blob.
// ---------------------------------------------------------------------------

void encode_upload_graph(std::vector<std::uint8_t>& out,
                         std::uint64_t graph_id, const graph::CsrGraph& g) {
  ByteWriter w(out);
  w.u64(graph_id);
  const auto& offsets = g.offsets();
  const auto& adjacency = g.adjacency();
  w.u32(static_cast<std::uint32_t>(g.num_vertices()));
  w.u64(static_cast<std::uint64_t>(adjacency.size()));
  for (std::int64_t o : offsets) w.i64(o);
  for (graph::Vertex v : adjacency) w.u32(static_cast<std::uint32_t>(v));
}

bool decode_upload_graph(const std::vector<std::uint8_t>& payload,
                         std::uint64_t* graph_id, graph::CsrGraph* g,
                         std::string* why) {
  const auto fail = [&](const std::string& m) {
    if (why != nullptr) *why = m;
    return false;
  };
  ByteReader r(payload);
  *graph_id = r.u64();
  const std::uint32_t n = r.u32();
  const std::uint64_t arcs = r.u64();
  if (!r.ok()) return fail("truncated header");
  // Cross-check the declared sizes against the actual payload length before
  // allocating anything: a hostile header cannot make the daemon reserve
  // gigabytes for a 20-byte frame. The bounds are checked in division form
  // first — `arcs * 4` wraps u64 for arcs >= 2^62, which would otherwise
  // let a tiny frame slip past the equality check into a huge allocation.
  const std::uint64_t rest = r.remaining();
  if (static_cast<std::uint64_t>(n) > rest / 8 || arcs > rest / 4)
    return fail("declared sizes mismatch payload");
  const std::uint64_t expect =
      (static_cast<std::uint64_t>(n) + 1) * 8 + arcs * 4;
  if (rest != expect) return fail("declared sizes mismatch payload");
  if (arcs % 2 != 0) return fail("odd arc count (graph must be symmetric)");

  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1);
  for (auto& o : offsets) o = r.i64();
  std::vector<graph::Vertex> adjacency(static_cast<std::size_t>(arcs));
  for (auto& v : adjacency) v = static_cast<graph::Vertex>(r.u32());
  if (!r.done()) return fail("truncated arrays");

  // Structural validation — the non-aborting twin of CsrGraph::validate().
  if (offsets.front() != 0) return fail("offsets[0] != 0");
  if (offsets.back() != static_cast<std::int64_t>(arcs))
    return fail("offsets[n] != arc count");
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) return fail("offsets not non-decreasing");
    const auto b = static_cast<std::size_t>(offsets[v]);
    const auto e = static_cast<std::size_t>(offsets[v + 1]);
    for (std::size_t i = b; i < e; ++i) {
      const graph::Vertex u = adjacency[i];
      if (u < 0 || static_cast<std::uint32_t>(u) >= n)
        return fail("neighbor out of range");
      if (u == static_cast<graph::Vertex>(v)) return fail("self-loop");
      if (i > b && adjacency[i] <= adjacency[i - 1])
        return fail("adjacency not sorted strictly ascending");
    }
  }
  // Symmetry: every arc (v, u) needs its mirror (u, v).
  for (std::size_t v = 0; v < n; ++v) {
    const auto b = static_cast<std::size_t>(offsets[v]);
    const auto e = static_cast<std::size_t>(offsets[v + 1]);
    for (std::size_t i = b; i < e; ++i) {
      const auto u = static_cast<std::size_t>(adjacency[i]);
      const auto ub = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
      const auto ue =
          adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
      if (!std::binary_search(ub, ue, static_cast<graph::Vertex>(v)))
        return fail("asymmetric adjacency");
    }
  }

  *g = graph::CsrGraph(std::move(offsets), std::move(adjacency));
  return true;
}

void encode_graph_ack(std::vector<std::uint8_t>& out, const GraphAckMsg& m) {
  ByteWriter w(out);
  w.u64(m.graph_id);
  w.u64(m.canonical_hash);
  w.u32(m.num_vertices);
  w.u64(m.num_edges);
}

bool decode_graph_ack(const std::vector<std::uint8_t>& payload,
                      GraphAckMsg* m) {
  ByteReader r(payload);
  m->graph_id = r.u64();
  m->canonical_hash = r.u64();
  m->num_vertices = r.u32();
  m->num_edges = r.u64();
  return r.done();
}

// ---------------------------------------------------------------------------
// Solve request.
// ---------------------------------------------------------------------------

void encode_solve_request(std::vector<std::uint8_t>& out,
                          const SolveRequestMsg& m) {
  ByteWriter w(out);
  w.u8(m.by_name ? 1 : 0);
  if (m.by_name)
    w.str(m.instance);
  else
    w.u64(m.graph_id);

  const parallel::ParallelConfig& c = m.config;
  w.u8(static_cast<std::uint8_t>(m.method));
  w.u8(static_cast<std::uint8_t>(c.problem));
  w.i32(c.k);
  w.u8(static_cast<std::uint8_t>(c.semantics));
  w.u8(rules_mask(c.rules));
  w.u8(static_cast<std::uint8_t>(c.branch));
  w.u64(c.branch_seed);
  w.u8(static_cast<std::uint8_t>(c.branch_state));
  w.i32(c.block_size_override);
  w.i32(c.grid_override);
  w.i32(c.start_depth);
  w.u64(static_cast<std::uint64_t>(c.worklist_capacity));
  w.f64(c.worklist_threshold_frac);
  encode_device(w, c.device);

  w.u64(m.limits.max_tree_nodes);
  w.f64(m.limits.time_limit_s);
  w.i32(m.priority);
  w.f64(m.deadline_s);
}

bool decode_solve_request(const std::vector<std::uint8_t>& payload,
                          SolveRequestMsg* m) {
  ByteReader r(payload);
  const std::uint8_t by_name = r.u8();
  if (by_name > 1) return false;
  m->by_name = by_name == 1;
  if (m->by_name) {
    m->instance = r.str();
    m->graph_id = 0;
    if (m->instance.empty()) return false;
  } else {
    m->graph_id = r.u64();
  }

  const std::uint8_t method = r.u8();
  if (method > static_cast<std::uint8_t>(parallel::Method::kWorkStealing))
    return false;
  m->method = static_cast<parallel::Method>(method);

  parallel::ParallelConfig& c = m->config;
  const std::uint8_t problem = r.u8();
  if (problem > static_cast<std::uint8_t>(vc::Problem::kPvc)) return false;
  c.problem = static_cast<vc::Problem>(problem);
  c.k = r.i32();
  const std::uint8_t semantics = r.u8();
  if (semantics > static_cast<std::uint8_t>(vc::ReduceSemantics::kIncremental))
    return false;
  c.semantics = static_cast<vc::ReduceSemantics>(semantics);
  const std::uint8_t rules = r.u8();
  if (rules > 7) return false;
  c.rules.degree_one = (rules & 1) != 0;
  c.rules.degree_two_triangle = (rules & 2) != 0;
  c.rules.high_degree = (rules & 4) != 0;
  const std::uint8_t branch = r.u8();
  if (branch > static_cast<std::uint8_t>(vc::BranchStrategy::kFirst))
    return false;
  c.branch = static_cast<vc::BranchStrategy>(branch);
  c.branch_seed = r.u64();
  const std::uint8_t branch_state = r.u8();
  if (branch_state > static_cast<std::uint8_t>(vc::BranchStateMode::kUndoTrail))
    return false;
  c.branch_state = static_cast<vc::BranchStateMode>(branch_state);
  c.block_size_override = r.i32();
  c.grid_override = r.i32();
  c.start_depth = r.i32();
  c.worklist_capacity = static_cast<std::size_t>(r.u64());
  c.worklist_threshold_frac = r.f64();
  if (!decode_device(r, &c.device)) return false;

  m->limits.max_tree_nodes = r.u64();
  m->limits.time_limit_s = r.f64();
  m->priority = r.i32();
  m->deadline_s = r.f64();
  if (!r.done()) return false;

  // Semantic ceilings (see the constants above).
  if (c.problem == vc::Problem::kPvc && c.k <= 0) return false;
  if (c.block_size_override < 0 || c.grid_override < 0) return false;
  if (c.start_depth < 0 || c.start_depth > kMaxStartDepth) return false;
  if (c.worklist_capacity == 0 ||
      c.worklist_capacity > kMaxWorklistCapacity)
    return false;
  if (!(c.worklist_threshold_frac >= 0.0 && c.worklist_threshold_frac <= 1.0))
    return false;
  if (!(m->limits.time_limit_s >= 0.0)) return false;
  if (!(m->deadline_s >= 0.0)) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Accepted / Result.
// ---------------------------------------------------------------------------

void encode_accepted(std::vector<std::uint8_t>& out, const AcceptedMsg& m) {
  ByteWriter w(out);
  w.u64(m.job_id);
  w.u8(static_cast<std::uint8_t>((m.cache_hit ? 1u : 0u) |
                                 (m.coalesced ? 2u : 0u) |
                                 (m.rejected ? 4u : 0u)));
}

bool decode_accepted(const std::vector<std::uint8_t>& payload,
                     AcceptedMsg* m) {
  ByteReader r(payload);
  m->job_id = r.u64();
  const std::uint8_t flags = r.u8();
  if (flags > 7) return false;
  m->cache_hit = (flags & 1) != 0;
  m->coalesced = (flags & 2) != 0;
  m->rejected = (flags & 4) != 0;
  return r.done();
}

std::uint8_t wire_job_status(int service_status) {
  // service::JobStatus is already the stable 0..5 sequence the spec
  // documents; the cast lives here so a future enum reorder breaks exactly
  // one function (and its test) instead of the wire ABI.
  return static_cast<std::uint8_t>(service_status);
}

void encode_result(std::vector<std::uint8_t>& out, const ResultMsg& m) {
  ByteWriter w(out);
  w.u8(m.status);
  w.u8(static_cast<std::uint8_t>(m.outcome));
  w.i32(m.best_size);
  w.u64(m.tree_nodes);
  w.f64(m.seconds);
  w.f64(m.sim_seconds);
  w.i32(m.greedy_upper_bound);
  w.u32(static_cast<std::uint32_t>(m.cover.size()));
  for (graph::Vertex v : m.cover) w.u32(static_cast<std::uint32_t>(v));
}

bool decode_result(const std::vector<std::uint8_t>& payload, ResultMsg* m) {
  ByteReader r(payload);
  m->status = r.u8();
  if (m->status > 5) return false;
  const std::uint8_t outcome = r.u8();
  if (outcome > static_cast<std::uint8_t>(vc::Outcome::kCancelled))
    return false;
  m->outcome = static_cast<vc::Outcome>(outcome);
  m->best_size = r.i32();
  m->tree_nodes = r.u64();
  m->seconds = r.f64();
  m->sim_seconds = r.f64();
  m->greedy_upper_bound = r.i32();
  const std::uint32_t cover_size = r.u32();
  if (!r.ok() || cover_size * 4ull != r.remaining()) return false;
  m->cover.resize(cover_size);
  for (auto& v : m->cover) v = static_cast<graph::Vertex>(r.u32());
  return r.done();
}

// ---------------------------------------------------------------------------
// Small control payloads.
// ---------------------------------------------------------------------------

void encode_cancel(std::vector<std::uint8_t>& out, const CancelMsg& m) {
  ByteWriter w(out);
  w.u64(m.target_request_id);
}

bool decode_cancel(const std::vector<std::uint8_t>& payload, CancelMsg* m) {
  ByteReader r(payload);
  m->target_request_id = r.u64();
  return r.done();
}

void encode_cancel_ack(std::vector<std::uint8_t>& out, const CancelAckMsg& m) {
  ByteWriter w(out);
  w.u8(m.hit ? 1 : 0);
}

bool decode_cancel_ack(const std::vector<std::uint8_t>& payload,
                       CancelAckMsg* m) {
  ByteReader r(payload);
  const std::uint8_t hit = r.u8();
  if (hit > 1) return false;
  m->hit = hit == 1;
  return r.done();
}

void encode_status_reply(std::vector<std::uint8_t>& out,
                         const StatusReplyMsg& m) {
  ByteWriter w(out);
  w.u8(m.known ? 1 : 0);
  w.u8(m.status);
}

bool decode_status_reply(const std::vector<std::uint8_t>& payload,
                         StatusReplyMsg* m) {
  ByteReader r(payload);
  const std::uint8_t known = r.u8();
  if (known > 1) return false;
  m->known = known == 1;
  m->status = r.u8();
  if (m->status > 5) return false;
  return r.done();
}

void encode_error(std::vector<std::uint8_t>& out, const ErrorMsg& m) {
  ByteWriter w(out);
  w.u16(static_cast<std::uint16_t>(m.code));
  w.str(m.message);
}

bool decode_error(const std::vector<std::uint8_t>& payload, ErrorMsg* m) {
  ByteReader r(payload);
  m->code = static_cast<ErrorCode>(r.u16());
  m->message = r.str();
  return r.done();
}

void encode_stats_reply(std::vector<std::uint8_t>& out, const std::string& s) {
  ByteWriter w(out);
  w.str(s);
}

bool decode_stats_reply(const std::vector<std::uint8_t>& payload,
                        std::string* s) {
  ByteReader r(payload);
  *s = r.str();
  return r.done();
}

}  // namespace gvc::net

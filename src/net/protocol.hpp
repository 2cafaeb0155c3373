#pragma once

// net/protocol — the message layer of the serving protocol: opcodes, the
// error taxonomy, typed payload structs with encode/decode pairs, and the
// CSR graph blob codec with a non-aborting structural validator (bytes off
// a socket are untrusted; CsrGraph::validate() aborts and is therefore the
// wrong tool on this path).
//
// The surface is modeled on the yipc exemplar (create/send/send_sync/recv
// keyed by ids over a shared datablock): a client uploads or names a graph,
// sends Solve frames carrying the full request identity, and receives
// ticket-keyed Accepted/Result frames fully asynchronously — the shared
// datablock behind the daemon is the SolveService's ResultCache, so
// identical requests from different connections coalesce exactly like
// in-process submissions. Wire schema details live in docs/serving.md.
//
// Every decode_* returns false (never aborts) on malformed payloads: short
// buffers, trailing garbage, out-of-range enum values. Decoders accept a
// payload only when it matches the schema exactly (ByteReader::done()).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "net/frame.hpp"
#include "parallel/config.hpp"
#include "parallel/solver.hpp"

namespace gvc::net {

// ---------------------------------------------------------------------------
// Opcodes. Requests have the high bit clear, replies have it set; kError can
// answer any request. Values are wire ABI — append, never renumber.
// ---------------------------------------------------------------------------

enum class Op : std::uint8_t {
  // client -> server
  kPing = 0x01,
  kUploadGraph = 0x02,
  kSolve = 0x03,
  kCancel = 0x04,
  kPoll = 0x05,
  kStats = 0x06,
  kShutdown = 0x07,  ///< graceful daemon stop; honored only when the server
                     ///< was started with allow_remote_shutdown

  // server -> client
  kPong = 0x81,
  kGraphAck = 0x82,
  kAccepted = 0x83,     ///< submission fate known (queued/hit/coalesced/...)
  kResult = 0x84,       ///< the ticket's terminal record
  kCancelAck = 0x85,
  kStatusReply = 0x86,  ///< answer to kPoll
  kStatsReply = 0x87,
  kShutdownAck = 0x88,
  kError = 0xFF,
};

const char* op_name(Op op);

/// True for opcodes a server accepts from a client.
bool is_request_op(std::uint8_t op);

// ---------------------------------------------------------------------------
// Error taxonomy. Stream-fatal codes mean the connection is beyond repair
// (framing is lost or hostile) and is dropped after the error frame; the
// request-scoped ones fail one request id and leave the stream healthy.
// ---------------------------------------------------------------------------

enum class ErrorCode : std::uint16_t {
  kNone = 0,
  // stream-fatal
  kBadVersion = 1,
  kFrameTooLarge = 2,
  kBadFrame = 3,
  // request-scoped
  kBadOpcode = 10,
  kBadPayload = 11,
  kUnknownGraph = 12,
  kUnknownInstance = 13,
  kBadGraph = 14,        ///< blob decoded but violates CSR invariants
  kDuplicateId = 15,     ///< request id or graph id already live
  kUnknownTicket = 16,
  kShuttingDown = 17,
  kNotAllowed = 18,      ///< e.g. kShutdown without allow_remote_shutdown
  kInternal = 19,
  // client-side synthetic (never on the wire)
  kConnectionLost = 100,
};

const char* error_code_name(ErrorCode c);

struct ErrorMsg {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

// ---------------------------------------------------------------------------
// Graph upload.
// ---------------------------------------------------------------------------

struct GraphAckMsg {
  std::uint64_t graph_id = 0;
  std::uint64_t canonical_hash = 0;
  std::uint32_t num_vertices = 0;
  std::uint64_t num_edges = 0;
};

/// UploadGraph payload: u64 graph_id + CSR blob (u32 n, u64 arc count,
/// n+1 i64 offsets, arc-count u32 adjacency).
void encode_upload_graph(std::vector<std::uint8_t>& out,
                         std::uint64_t graph_id, const graph::CsrGraph& g);

/// Decodes and structurally validates an uploaded blob. On failure returns
/// false and names the violation in `why` (never aborts — socket bytes are
/// untrusted). Validation enforces the CsrGraph invariants: offsets
/// non-decreasing from 0 to the arc count, adjacency sorted/duplicate-free/
/// in-range per vertex, no self-loops, and symmetry.
bool decode_upload_graph(const std::vector<std::uint8_t>& payload,
                         std::uint64_t* graph_id, graph::CsrGraph* g,
                         std::string* why);

void encode_graph_ack(std::vector<std::uint8_t>& out, const GraphAckMsg& m);
bool decode_graph_ack(const std::vector<std::uint8_t>& payload,
                      GraphAckMsg* m);

// ---------------------------------------------------------------------------
// Solve request: the full request identity — graph reference, method, the
// ParallelConfig fields (including the device spec, so a daemon configured
// to run submitted configs verbatim reproduces a client-side direct call
// bit-for-bit), plus the execution-policy envelope (limits, priority,
// relative deadline) that maps 1:1 onto service::JobSpec.
// ---------------------------------------------------------------------------

/// Sanity ceilings for untrusted solve configs: generous enough for any
/// legitimate request, tight enough that a hostile frame cannot drive the
/// planner or worklist into absurd allocations. decode_solve_request
/// enforces the first four; the server plans each request against its
/// graph and device (parallel::check_solve) before submitting it.
inline constexpr std::int32_t kMaxStartDepth = 24;
inline constexpr std::uint64_t kMaxWorklistCapacity = std::uint64_t{1} << 24;
inline constexpr std::int32_t kMaxDeviceSms = 1 << 16;
inline constexpr std::int32_t kMaxDeviceThreads = 1 << 20;
/// Most host threads one solve request may start. A cooperative grid runs
/// one per block (grid_override, or the plan's resident count); a pooled
/// StackOnly launch runs one per resident slot. The server refuses more.
inline constexpr int kMaxSolveThreads = 256;

struct SolveRequestMsg {
  /// Graph reference: a previously uploaded id, or a named catalog instance
  /// at the daemon's catalog scale.
  bool by_name = false;
  std::uint64_t graph_id = 0;
  std::string instance;

  parallel::Method method = parallel::Method::kHybrid;
  parallel::ParallelConfig config;  ///< device included; see above

  vc::Limits limits;
  std::int32_t priority = 0;
  double deadline_s = 0.0;  ///< relative to server-side admission; 0 = none
};

void encode_solve_request(std::vector<std::uint8_t>& out,
                          const SolveRequestMsg& m);
bool decode_solve_request(const std::vector<std::uint8_t>& payload,
                          SolveRequestMsg* m);

// ---------------------------------------------------------------------------
// Submission fate + terminal result. JobStatus travels as a stable u8
// (0 queued, 1 running, 2 done, 3 expired, 4 cancelled, 5 rejected) so the
// wire ABI survives refactors of the in-process enum.
// ---------------------------------------------------------------------------

struct AcceptedMsg {
  std::uint64_t job_id = 0;   ///< server-side JobId (diagnostic)
  bool cache_hit = false;
  bool coalesced = false;
  bool rejected = false;      ///< refused at admission (backpressure)
};

void encode_accepted(std::vector<std::uint8_t>& out, const AcceptedMsg& m);
bool decode_accepted(const std::vector<std::uint8_t>& payload, AcceptedMsg* m);

struct ResultMsg {
  std::uint8_t status = 0;  ///< wire JobStatus (see above)
  vc::Outcome outcome = vc::Outcome::kOptimal;
  std::int32_t best_size = -1;
  std::vector<graph::Vertex> cover;
  std::uint64_t tree_nodes = 0;
  double seconds = 0.0;
  double sim_seconds = 0.0;
  std::int32_t greedy_upper_bound = 0;
};

void encode_result(std::vector<std::uint8_t>& out, const ResultMsg& m);
bool decode_result(const std::vector<std::uint8_t>& payload, ResultMsg* m);

/// The wire status byte for a service JobStatus (stable mapping).
std::uint8_t wire_job_status(int service_status);

// ---------------------------------------------------------------------------
// Small control payloads.
// ---------------------------------------------------------------------------

struct CancelMsg {
  std::uint64_t target_request_id = 0;
};
struct CancelAckMsg {
  bool hit = false;  ///< a live (non-terminal) job received the cancel
};
struct StatusReplyMsg {
  bool known = false;
  std::uint8_t status = 0;  ///< wire JobStatus; valid when known
};

void encode_cancel(std::vector<std::uint8_t>& out, const CancelMsg& m);
bool decode_cancel(const std::vector<std::uint8_t>& payload, CancelMsg* m);
void encode_cancel_ack(std::vector<std::uint8_t>& out, const CancelAckMsg& m);
bool decode_cancel_ack(const std::vector<std::uint8_t>& payload,
                       CancelAckMsg* m);
void encode_status_reply(std::vector<std::uint8_t>& out,
                         const StatusReplyMsg& m);
bool decode_status_reply(const std::vector<std::uint8_t>& payload,
                         StatusReplyMsg* m);
void encode_error(std::vector<std::uint8_t>& out, const ErrorMsg& m);
bool decode_error(const std::vector<std::uint8_t>& payload, ErrorMsg* m);

/// kStats reply payload is one string (the obs::Registry JSON dump).
void encode_stats_reply(std::vector<std::uint8_t>& out, const std::string& s);
bool decode_stats_reply(const std::vector<std::uint8_t>& payload,
                        std::string* s);

}  // namespace gvc::net

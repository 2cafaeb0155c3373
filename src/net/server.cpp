#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.hpp"
#include "parallel/solver.hpp"
#include "service/graph_hash.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace gvc::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

ErrorCode stream_error_code(const char* decoder_error) {
  if (std::strcmp(decoder_error, "frame-too-large") == 0)
    return ErrorCode::kFrameTooLarge;
  if (std::strcmp(decoder_error, "bad-version") == 0)
    return ErrorCode::kBadVersion;
  return ErrorCode::kBadFrame;
}

}  // namespace

void Server::CompletionBus::post(std::uint64_t conn_id,
                                 std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mutex);
  events.emplace_back(conn_id, request_id);
  if (wake_fd >= 0) {
    const char b = 0;
    // A full pipe means a wake is already pending — the event is queued
    // either way, so EAGAIN is success here.
    [[maybe_unused]] const ssize_t r = ::write(wake_fd, &b, 1);
  }
}

Server::Server(service::SolveService& service, ServerOptions options)
    : service_(service), options_(std::move(options)),
      bus_(std::make_shared<CompletionBus>()) {
  obs::Registry& reg = obs::Registry::global();
  connections_total_ =
      reg.counter("gvc_net_connections_total", "connections accepted");
  frames_in_total_ = reg.counter("gvc_net_frames_in_total",
                                 "complete frames received from clients");
  frames_out_total_ =
      reg.counter("gvc_net_frames_out_total", "frames queued to clients");
  bytes_in_total_ = reg.counter("gvc_net_bytes_in_total",
                                "bytes read from client sockets");
  bytes_out_total_ = reg.counter("gvc_net_bytes_out_total",
                                 "bytes written to client sockets");
  decode_errors_total_ =
      reg.counter("gvc_net_decode_errors_total",
                  "stream-fatal framing violations (connection dropped)");
  error_replies_total_ = reg.counter("gvc_net_error_replies_total",
                                     "kError frames sent (any scope)");
  solves_total_ =
      reg.counter("gvc_net_solves_total", "kSolve requests admitted");
  cancels_total_ =
      reg.counter("gvc_net_cancels_total", "kCancel requests that hit a "
                                           "live job");
  backpressure_pauses_total_ =
      reg.counter("gvc_net_backpressure_pauses_total",
                  "times a connection's reads were paused because its "
                  "write queue exceeded the bound");
  disconnect_abandoned_total_ =
      reg.counter("gvc_net_disconnect_abandoned_total",
                  "in-flight jobs abandoned because their connection "
                  "dropped");
  op_handle_hist_.resize(8);
  for (std::uint8_t op = 1; op <= 7; ++op) {
    op_handle_hist_[op] = reg.histogram(
        std::string("gvc_net_op_handle_seconds_") +
            op_name(static_cast<Op>(op)),
        "reactor handle time (frame decoded -> reply queued)");
  }
  solve_turnaround_hist_ =
      reg.histogram("gvc_net_solve_turnaround_seconds",
                    "solve admission -> Result frame queued");
  gauge_handles_.push_back(reg.gauge(
      "gvc_net_connections_open", "currently open client connections",
      [this] { return static_cast<double>(open_connections()); }));
  gauge_handles_.push_back(reg.gauge(
      "gvc_net_jobs_inflight",
      "jobs admitted over the wire and not yet answered",
      [this] { return static_cast<double>(jobs_inflight()); }));
  gauge_handles_.push_back(reg.gauge(
      "gvc_net_write_queue_bytes", "pending bytes across all write queues",
      [this] {
        return static_cast<double>(
            pending_out_bytes_.load(std::memory_order_relaxed));
      }));
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    const int wfd = wake_write_fd_.exchange(-1, std::memory_order_acq_rel);
    if (wfd >= 0) ::close(wfd);
    listen_fd_ = wake_read_fd_ = -1;
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "already running";
    return false;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return fail("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_.store(pipe_fds[1], std::memory_order_release);
  if (!set_nonblocking(pipe_fds[0]) || !set_nonblocking(pipe_fds[1]))
    return fail("fcntl(wake)");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    errno = EINVAL;
    return fail("inet_pton(" + options_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    return fail("bind");
  if (::listen(listen_fd_, options_.listen_backlog) != 0)
    return fail("listen");
  if (!set_nonblocking(listen_fd_)) return fail("fcntl(listen)");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0)
    return fail("getsockname");
  port_ = static_cast<int>(ntohs(bound.sin_port));

  {
    std::lock_guard<std::mutex> lock(bus_->mutex);
    bus_->wake_fd = wake_write_fd_.load(std::memory_order_acquire);
  }
  running_.store(true, std::memory_order_release);
  reactor_ = std::thread([this] { reactor_loop(); });
  return true;
}

void Server::begin_shutdown() {
  admission_closed_.store(true, std::memory_order_release);
  // Async-signal-safe wake (one atomic load + one write on a pre-opened
  // fd) so the reactor notices promptly even when idle in poll().
  const int fd = wake_write_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char b = 0;
    [[maybe_unused]] const ssize_t r = ::write(fd, &b, 1);
  }
}

void Server::stop(double drain_timeout_s) {
  if (!reactor_.joinable()) return;
  begin_shutdown();

  // Drain: jobs still in flight keep completing on worker threads and the
  // reactor keeps shipping their Result frames; leave when everything is
  // answered AND flushed, or the timeout expires.
  const double deadline = service::service_now_s() + drain_timeout_s;
  while (service::service_now_s() < deadline) {
    if (jobs_inflight() == 0 &&
        pending_out_bytes_.load(std::memory_order_relaxed) == 0)
      break;
    ::usleep(2000);
  }

  running_.store(false, std::memory_order_release);
  wake();
  reactor_.join();

  // Detach the bus AND the signal-handler fd BEFORE closing the pipe: a
  // worker-thread waiter firing right now holds the bus mutex while it
  // checks wake_fd, and a SIGINT landing right now loads wake_write_fd_ in
  // begin_shutdown() — after these two detaches neither can write into a
  // closed (possibly kernel-reused) descriptor.
  {
    std::lock_guard<std::mutex> lock(bus_->mutex);
    bus_->wake_fd = -1;
  }
  const int wfd = wake_write_fd_.exchange(-1, std::memory_order_acq_rel);
  ::close(wake_read_fd_);
  if (wfd >= 0) ::close(wfd);
  ::close(listen_fd_);
  wake_read_fd_ = listen_fd_ = -1;
}

void Server::wake() {
  const int fd = wake_write_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char b = 0;
    [[maybe_unused]] const ssize_t r = ::write(fd, &b, 1);
  }
}

void Server::reactor_loop() {
  obs::set_thread_label("net-reactor");
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;

  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    ids.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn->read_paused) events |= POLLIN;
      if (conn->pending_out() > 0) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      ids.push_back(id);
    }

    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), 500) < 0) {
      if (errno == EINTR) continue;
      GVC_LOG_ERROR("net: poll failed: %s", std::strerror(errno));
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) accept_ready();

    for (std::size_t i = 0; i < ids.size(); ++i) {
      auto it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      Connection& c = *it->second;
      const short re = fds[i + 2].revents;
      if (!c.dead && (re & (POLLIN | POLLERR | POLLHUP)) != 0) read_ready(c);
      if (!c.dead && (re & POLLOUT) != 0) write_ready(c);
    }

    drain_completions();

    // Opportunistic flush: frames queued during this iteration usually fit
    // the socket buffer, so ship them now instead of waiting one poll
    // cycle for POLLOUT.
    for (auto& [id, conn] : conns_)
      if (!conn->dead && conn->pending_out() > 0) write_ready(*conn);

    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->dead)
        it = conns_.erase(it);
      else
        ++it;
    }
  }

  // Teardown: abandon whatever is still connected. close_connection cancels
  // the jobs; their waiters will post onto the (soon-detached) bus, which
  // is by design inert after stop().
  for (auto& [id, conn] : conns_)
    if (!conn->dead) close_connection(*conn);
  conns_.clear();
}

void Server::accept_ready() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                             &peer_len, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      GVC_LOG_WARN("net: accept failed: %s", std::strerror(errno));
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->id = next_conn_id_++;
    conn->fd = fd;
    const std::uint64_t id = conn->id;
    conns_.emplace(id, std::move(conn));
    connections_total_->add();
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    obs::trace_instant(obs::TraceCat::kNet, "net.accept", "conn",
                       static_cast<std::int64_t>(id));
  }
}

void Server::read_ready(Connection& c) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_total_->add(static_cast<std::uint64_t>(n));
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      Frame f;
      for (;;) {
        const FrameDecoder::Next next = c.decoder.next(&f);
        if (next == FrameDecoder::Next::kFrame) {
          // Last-resort containment: an exception escaping a handler (e.g.
          // an allocation failure on a pathological request) costs this
          // connection, not the whole daemon — the reactor thread has no
          // other catch and would std::terminate.
          try {
            handle_frame(c, f);
          } catch (const std::exception& e) {
            GVC_LOG_ERROR("net: handler exception on conn %llu: %s",
                          static_cast<unsigned long long>(c.id), e.what());
            close_connection(c);
          }
          if (c.dead) return;
          continue;
        }
        if (next == FrameDecoder::Next::kError) {
          decode_errors_total_->add();
          send_error(c, 0, stream_error_code(c.decoder.error()),
                     c.decoder.error());
          // Best-effort delivery of the diagnostic, then drop: the stream
          // position is untrustworthy from here on.
          write_ready(c);
          close_connection(c);
          return;
        }
        break;  // kNeedMore
      }
      if (c.read_paused) return;  // backpressure engaged mid-batch
      continue;
    }
    if (n == 0) {  // orderly EOF
      close_connection(c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_connection(c);
    return;
  }
}

void Server::write_ready(Connection& c) {
  while (c.pending_out() > 0) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos, c.pending_out(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      bytes_out_total_->add(static_cast<std::uint64_t>(n));
      pending_out_bytes_.fetch_sub(static_cast<std::uint64_t>(n),
                                   std::memory_order_relaxed);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(c);
    return;
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  } else if (c.out_pos > 0 && c.out_pos * 2 >= c.out.size()) {
    c.out.erase(c.out.begin(), c.out.begin() +
                                   static_cast<std::ptrdiff_t>(c.out_pos));
    c.out_pos = 0;
  }
  update_backpressure(c);
}

void Server::send_frame(Connection& c, Op op, std::uint64_t request_id,
                        const std::vector<std::uint8_t>& payload) {
  const std::size_t before = c.out.size();
  if (!encode_frame(c.out, static_cast<std::uint8_t>(op), request_id,
                    payload)) {
    // Unreachable for server-built payloads (all far below 4 GiB), but a
    // desynced stream is never an acceptable fallback.
    GVC_LOG_ERROR("net: reply payload exceeds frame length field (conn %llu)",
                  static_cast<unsigned long long>(c.id));
    close_connection(c);
    return;
  }
  pending_out_bytes_.fetch_add(c.out.size() - before,
                               std::memory_order_relaxed);
  frames_out_total_->add();
  update_backpressure(c);
}

void Server::send_error(Connection& c, std::uint64_t request_id,
                        ErrorCode code, const std::string& message) {
  std::vector<std::uint8_t> payload;
  encode_error(payload, ErrorMsg{code, message});
  send_frame(c, Op::kError, request_id, payload);
  error_replies_total_->add();
}

void Server::update_backpressure(Connection& c) {
  if (!c.read_paused && c.pending_out() > options_.max_write_queue_bytes) {
    c.read_paused = true;
    backpressure_pauses_total_->add();
    obs::trace_instant(obs::TraceCat::kNet, "net.pause", "conn",
                       static_cast<std::int64_t>(c.id));
  } else if (c.read_paused &&
             c.pending_out() <= options_.max_write_queue_bytes / 2) {
    c.read_paused = false;
  }
}

void Server::handle_frame(Connection& c, const Frame& f) {
  frames_in_total_->add();
  const std::uint64_t t0 = util::now_ns();
  obs::TraceSpanSampled span(obs::TraceCat::kNet, "net.request", "op",
                             static_cast<std::int64_t>(f.opcode));

  if (!is_request_op(f.opcode)) {
    send_error(c, f.request_id, ErrorCode::kBadOpcode,
               "unknown or reply-direction opcode");
    return;
  }
  switch (static_cast<Op>(f.opcode)) {
    case Op::kPing:
      // Payload is echoed back — lets clients measure RTT at any size.
      send_frame(c, Op::kPong, f.request_id, f.payload);
      break;
    case Op::kUploadGraph:
      handle_upload(c, f);
      break;
    case Op::kSolve:
      handle_solve(c, f);
      break;
    case Op::kCancel:
      handle_cancel(c, f);
      break;
    case Op::kPoll:
      handle_poll(c, f);
      break;
    case Op::kStats: {
      std::vector<std::uint8_t> payload;
      encode_stats_reply(payload, obs::Registry::global().json_text());
      send_frame(c, Op::kStatsReply, f.request_id, payload);
      break;
    }
    case Op::kShutdown:
      if (!options_.allow_remote_shutdown) {
        send_error(c, f.request_id, ErrorCode::kNotAllowed,
                   "remote shutdown disabled");
      } else {
        send_frame(c, Op::kShutdownAck, f.request_id, {});
        admission_closed_.store(true, std::memory_order_release);
      }
      break;
    default:
      send_error(c, f.request_id, ErrorCode::kBadOpcode, "unhandled opcode");
      break;
  }
  if (f.opcode < op_handle_hist_.size() &&
      op_handle_hist_[f.opcode] != nullptr)
    op_handle_hist_[f.opcode]->observe_ns(util::now_ns() - t0);
}

void Server::handle_upload(Connection& c, const Frame& f) {
  if (c.graphs.size() >= options_.max_graphs_per_connection) {
    send_error(c, f.request_id, ErrorCode::kNotAllowed,
               "per-connection graph limit reached");
    return;
  }
  // Byte budgets, checked on the wire size before any decode work: the
  // graph count cap alone would still let every connection pin
  // max_graphs * max_frame_bytes of CSR data.
  if (c.graph_bytes + f.payload.size() >
      options_.max_graph_bytes_per_connection) {
    send_error(c, f.request_id, ErrorCode::kNotAllowed,
               "per-connection graph byte budget exceeded");
    return;
  }
  if (graph_bytes_total_ + f.payload.size() >
      options_.max_graph_bytes_total) {
    send_error(c, f.request_id, ErrorCode::kNotAllowed,
               "server graph byte budget exceeded");
    return;
  }
  std::uint64_t graph_id = 0;
  auto g = std::make_shared<graph::CsrGraph>();
  std::string why;
  if (!decode_upload_graph(f.payload, &graph_id, g.get(), &why)) {
    send_error(c, f.request_id, ErrorCode::kBadGraph, why);
    return;
  }
  if (!c.graphs.emplace(graph_id, g).second) {
    send_error(c, f.request_id, ErrorCode::kDuplicateId,
               "graph id already registered on this connection");
    return;
  }
  c.graph_bytes += f.payload.size();
  graph_bytes_total_ += f.payload.size();
  GraphAckMsg ack;
  ack.graph_id = graph_id;
  ack.canonical_hash = service::canonical_graph_hash(*g);
  ack.num_vertices = static_cast<std::uint32_t>(g->num_vertices());
  ack.num_edges = g->adjacency().size() / 2;
  std::vector<std::uint8_t> payload;
  encode_graph_ack(payload, ack);
  send_frame(c, Op::kGraphAck, f.request_id, payload);
}

void Server::handle_solve(Connection& c, const Frame& f) {
  if (admission_closed_.load(std::memory_order_acquire)) {
    send_error(c, f.request_id, ErrorCode::kShuttingDown,
               "daemon is draining");
    return;
  }
  if (c.jobs.count(f.request_id) != 0) {
    send_error(c, f.request_id, ErrorCode::kDuplicateId,
               "request id already in flight on this connection");
    return;
  }
  SolveRequestMsg msg;
  if (!decode_solve_request(f.payload, &msg)) {
    send_error(c, f.request_id, ErrorCode::kBadPayload,
               "malformed solve request");
    return;
  }

  std::shared_ptr<const graph::CsrGraph> g;
  if (msg.by_name) {
    if (options_.instance_resolver) g = options_.instance_resolver(msg.instance);
    if (g == nullptr) {
      send_error(c, f.request_id, ErrorCode::kUnknownInstance, msg.instance);
      return;
    }
  } else {
    const auto it = c.graphs.find(msg.graph_id);
    if (it == c.graphs.end()) {
      send_error(c, f.request_id, ErrorCode::kUnknownGraph,
                 "graph id not uploaded on this connection");
      return;
    }
    g = it->second;
  }

  service::JobSpec spec;
  spec.graph = std::move(g);
  spec.method = msg.method;
  spec.config = msg.config;
  spec.limits = msg.limits;
  spec.priority = msg.priority;
  spec.deadline_s = msg.deadline_s;

  // Refuse what the solve would abort on, or more host threads than one
  // request may start, judged on the device the job will run on.
  parallel::ParallelConfig executed = spec.config;
  executed.device = service_.executed_device(spec);
  int threads = 0;
  if (const char* why =
          parallel::check_solve(*spec.graph, spec.method, executed, &threads)) {
    send_error(c, f.request_id, ErrorCode::kBadPayload, why);
    return;
  }
  if (threads > kMaxSolveThreads) {
    send_error(c, f.request_id, ErrorCode::kNotAllowed,
               util::format("solve would start %d threads (limit %d)",
                            threads, kMaxSolveThreads));
    return;
  }

  service::JobTicket ticket = service_.submit(std::move(spec));
  solves_total_->add();

  AcceptedMsg accepted;
  accepted.job_id = ticket.id();
  accepted.cache_hit = ticket.cache_hit;
  accepted.coalesced = ticket.coalesced;
  accepted.rejected =
      ticket.state->status() == service::JobStatus::kRejected;
  std::vector<std::uint8_t> payload;
  encode_accepted(payload, accepted);
  send_frame(c, Op::kAccepted, f.request_id, payload);

  auto state = ticket.state;
  c.jobs.emplace(f.request_id,
                 PendingJob{std::move(ticket), service::service_now_s()});
  jobs_inflight_.fetch_add(1, std::memory_order_relaxed);

  // The bridge: fires on whatever thread performs the terminal transition
  // (a solve worker; the reactor itself for cache hits and rejections —
  // then the event is drained later this same iteration, keeping Accepted
  // before Result). Captures the bus by shared_ptr, never the server.
  const std::uint64_t conn_id = c.id;
  const std::uint64_t request_id = f.request_id;
  auto bus = bus_;
  state->add_waiter([bus = std::move(bus), conn_id, request_id] {
    bus->post(conn_id, request_id);
  });
}

void Server::handle_cancel(Connection& c, const Frame& f) {
  CancelMsg msg;
  if (!decode_cancel(f.payload, &msg)) {
    send_error(c, f.request_id, ErrorCode::kBadPayload,
               "malformed cancel request");
    return;
  }
  const auto it = c.jobs.find(msg.target_request_id);
  if (it == c.jobs.end()) {
    send_error(c, f.request_id, ErrorCode::kUnknownTicket,
               "no such in-flight request id (already answered?)");
    return;
  }
  CancelAckMsg ack;
  ack.hit = it->second.ticket.cancel();
  if (ack.hit) cancels_total_->add();
  std::vector<std::uint8_t> payload;
  encode_cancel_ack(payload, ack);
  send_frame(c, Op::kCancelAck, f.request_id, payload);
}

void Server::handle_poll(Connection& c, const Frame& f) {
  CancelMsg msg;  // same one-u64 payload shape: the target request id
  if (!decode_cancel(f.payload, &msg)) {
    send_error(c, f.request_id, ErrorCode::kBadPayload,
               "malformed poll request");
    return;
  }
  StatusReplyMsg reply;
  const auto it = c.jobs.find(msg.target_request_id);
  if (it != c.jobs.end()) {
    reply.known = true;
    reply.status = wire_job_status(
        static_cast<int>(it->second.ticket.state->status()));
  }
  std::vector<std::uint8_t> payload;
  encode_status_reply(payload, reply);
  send_frame(c, Op::kStatusReply, f.request_id, payload);
}

void Server::drain_completions() {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> events;
  {
    std::lock_guard<std::mutex> lock(bus_->mutex);
    events.swap(bus_->events);
  }
  for (const auto& [conn_id, request_id] : events) {
    const auto it = conns_.find(conn_id);
    // A completion for a closed connection is routine (disconnect already
    // accounted for the job); ignore it.
    if (it == conns_.end() || it->second->dead) continue;
    deliver_result(*it->second, request_id);
  }
}

void Server::deliver_result(Connection& c, std::uint64_t request_id) {
  const auto it = c.jobs.find(request_id);
  if (it == c.jobs.end()) return;
  const PendingJob& job = it->second;
  const auto& state = *job.ticket.state;

  ResultMsg msg;
  msg.status = wire_job_status(static_cast<int>(state.status()));
  const parallel::ParallelResult& r = state.result();
  msg.outcome = r.outcome;
  msg.best_size = r.best_size;
  msg.cover = r.cover;
  msg.tree_nodes = r.tree_nodes;
  msg.seconds = r.seconds;
  msg.sim_seconds = r.sim_seconds;
  msg.greedy_upper_bound = r.greedy_upper_bound;
  std::vector<std::uint8_t> payload;
  encode_result(payload, msg);
  send_frame(c, Op::kResult, request_id, payload);

  solve_turnaround_hist_->observe_seconds(service::service_now_s() -
                                          job.accept_s);
  c.jobs.erase(it);
  jobs_inflight_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::close_connection(Connection& c) {
  if (c.dead) return;
  c.dead = true;
  obs::trace_instant(obs::TraceCat::kNet, "net.close", "conn",
                     static_cast<std::int64_t>(c.id));

  // Abandonment: cancel every job this connection owns. Coalesced tickets
  // share another submission's JobState — other connections (or in-process
  // callers) may be waiting on that solve, so those are merely released.
  std::uint64_t abandoned = 0;
  for (auto& [request_id, job] : c.jobs) {
    ++abandoned;
    if (!job.ticket.coalesced && !job.ticket.cache_hit) job.ticket.cancel();
  }
  if (abandoned > 0) {
    disconnect_abandoned_total_->add(abandoned);
    jobs_inflight_.fetch_sub(abandoned, std::memory_order_relaxed);
  }
  c.jobs.clear();
  c.graphs.clear();
  graph_bytes_total_ -= c.graph_bytes;
  c.graph_bytes = 0;

  pending_out_bytes_.fetch_sub(c.pending_out(), std::memory_order_relaxed);
  c.out.clear();
  c.out_pos = 0;
  ::close(c.fd);
  c.fd = -1;
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace gvc::net

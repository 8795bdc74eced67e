#include "src/service/daemon.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/net/protocol.h"
#include "src/service/wire.h"
#include "src/snapshot/page_store.h"

namespace lw {
namespace internal {

// One tenant: its socket, its reader/writer thread pair, its sessions and
// their token tables, and its budget/backpressure accounting.
//
// Thread roles (the locking story):
//   * reader thread: frame parse, admission, job submission, and every
//     inline-answered message (open/close/release/stats). The `sessions` map
//     and the reader-side counters (max_inflight_observed,
//     budget_rejections) are reader-thread-only.
//   * pool worker threads: retire solve jobs — register the new token into
//     its Session (under that session's mutex) and settle the byte charge
//     (atomic).
//   * writer thread: retires replies strictly in request order, so one
//     tenant's responses are never reordered, and decrements in-flight.
struct DaemonConnection {
  struct TokenEntry {
    Checkpoint cp;
    uint64_t charged = 0;  // bytes settled against the tenant budget
  };

  struct Session {
    int service = -1;        // pool service this session pins
    uint64_t next_token = 1;  // 0 is never granted (reserved: "no token")
    std::mutex mu;
    bool closed = false;  // set at close: late-retiring jobs drop, not charge
    std::unordered_map<uint64_t, TokenEntry> tokens;
  };

  struct Reply {
    std::future<std::vector<uint8_t>> frame;
    bool counted = false;  // true for admitted solve jobs (in-flight slots)
  };

  CheckpointDaemon* daemon = nullptr;
  Socket sock;
  std::thread reader;
  std::thread writer;
  std::atomic<bool> finished{false};  // reader is past teardown: reapable

  std::mutex mu;
  std::condition_variable reader_cv;  // in-flight slot free, or closing
  std::condition_variable writer_cv;  // reply queued, or stop
  std::deque<Reply> replies;
  uint32_t inflight = 0;
  bool writer_stop = false;
  bool closing = false;
  bool dropped = false;  // framing violation (counted by the daemon)

  // Tenant state.
  bool hello_done = false;
  uint64_t budget_bytes = 0;
  std::atomic<uint64_t> charged_bytes{0};
  std::atomic<uint64_t> jobs_executed{0};
  uint32_t max_inflight_observed = 0;
  uint64_t budget_rejections = 0;
  // Session ids are per-connection and never reused, so a closed session's id
  // (and every token under it) stays stale even after its service slot is
  // recycled into a new session.
  uint32_t next_session_id = 1;
  std::map<uint32_t, std::shared_ptr<Session>> sessions;

  void Enqueue(std::future<std::vector<uint8_t>> frame, bool counted) {
    {
      std::lock_guard<std::mutex> lock(mu);
      replies.push_back(Reply{std::move(frame), counted});
    }
    writer_cv.notify_one();
  }

  void EnqueueReady(std::vector<uint8_t> frame) {
    std::promise<std::vector<uint8_t>> ready;
    ready.set_value(std::move(frame));
    Enqueue(ready.get_future(), /*counted=*/false);
  }

  void EnqueueError(MsgType type, uint64_t request_id, const Status& status) {
    EnqueueReady(EncodeErrorResponse(type, request_id, status));
  }

  // Unblocks both threads from outside (daemon Stop).
  void Sever() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closing = true;
    }
    reader_cv.notify_all();
    sock.ShutdownBoth();
  }

  void ReaderMain();
  void WriterMain();
  // Returns false when the connection must drop (framing violation/close).
  bool HandleFrame(const std::vector<uint8_t>& payload);
  bool HandleSolve(MsgType type, uint64_t request_id, WireReader& reader_state);
  void ReleaseSessions();
};

void DaemonConnection::WriterMain() {
  bool write_failed = false;
  while (true) {
    Reply reply;
    {
      std::unique_lock<std::mutex> lock(mu);
      writer_cv.wait(lock, [this] { return writer_stop || !replies.empty(); });
      if (replies.empty()) {
        break;  // stop requested and queue drained
      }
      reply = std::move(replies.front());
      replies.pop_front();
    }
    // get() even after a write failure: every admitted job must retire (its
    // token registration and byte charge happen inside) before teardown.
    std::vector<uint8_t> frame = reply.frame.get();
    if (!write_failed) {
      Status status = WriteFrame(sock, frame.data(), frame.size(), kDefaultMaxFrameBytes);
      if (!status.ok()) {
        write_failed = true;  // peer is gone; keep draining silently
      }
    }
    if (reply.counted) {
      {
        std::lock_guard<std::mutex> lock(mu);
        --inflight;
      }
      reader_cv.notify_all();
    }
  }
}

void DaemonConnection::ReaderMain() {
  std::vector<uint8_t> payload;
  while (true) {
    bool clean_eof = false;
    Status status = ReadFrame(sock, &payload, kDefaultMaxFrameBytes, &clean_eof);
    if (!status.ok()) {
      dropped = true;  // framing violation: the stream is unsynchronized
      break;
    }
    if (clean_eof) {
      break;
    }
    if (!HandleFrame(payload)) {
      dropped = true;
      break;
    }
  }
  // Teardown: flush the reply queue (jobs retire inside), then the sessions.
  {
    std::lock_guard<std::mutex> lock(mu);
    closing = true;
    writer_stop = true;
  }
  writer_cv.notify_one();
  writer.join();
  ReleaseSessions();
  if (dropped) {
    std::lock_guard<std::mutex> lock(daemon->conn_mu_);
    ++daemon->connections_dropped_;
  }
  // Signal EOF to the peer (stats above are visible before it observes the
  // close). The fd itself stays open until the daemon reaps the connection:
  // the accept loop joins and frees finished connections before each new one.
  finished = true;
  sock.ShutdownBoth();
}

void DaemonConnection::ReleaseSessions() {
  for (auto& [id, session] : sessions) {
    {
      std::lock_guard<std::mutex> lock(session->mu);
      session->closed = true;
      session->tokens.clear();  // handles drop; reclamation is any-thread safe
    }
    daemon->ReturnService(session->service);
  }
  sessions.clear();
}

bool DaemonConnection::HandleFrame(const std::vector<uint8_t>& payload) {
  WireReader reader_state(payload.data(), payload.size());
  uint8_t type_raw = 0;
  uint64_t request_id = 0;
  if (!reader_state.u8(&type_raw) || !reader_state.u64(&request_id)) {
    EnqueueError(static_cast<MsgType>(0), 0,
                 InvalidArgument("request too short for its header"));
    return true;
  }
  MsgType type = static_cast<MsgType>(type_raw);
  if (!hello_done && type != MsgType::kHello) {
    EnqueueError(type, request_id, BadState("hello required before any other message"));
    return true;
  }
  switch (type) {
    case MsgType::kHello: {
      if (hello_done) {
        EnqueueError(type, request_id, BadState("hello already completed"));
        return true;
      }
      uint32_t version = 0;
      uint64_t requested = 0;
      if (!reader_state.u32(&version) || !reader_state.u64(&requested)) {
        EnqueueError(type, request_id, InvalidArgument("malformed hello"));
        return true;
      }
      if (version != kFabricProtocolVersion) {
        EnqueueError(type, request_id, Unsupported("protocol version mismatch"));
        return true;
      }
      const CheckpointDaemonOptions& opts = daemon->options_;
      budget_bytes = requested == 0 ? opts.default_budget_bytes : requested;
      if (opts.max_budget_bytes != 0 && budget_bytes != 0) {
        budget_bytes = std::min(budget_bytes, opts.max_budget_bytes);
      }
      hello_done = true;
      std::vector<uint8_t> body;
      {
        body.resize(4 + 8 + 4 + 4);
        WireWriter w(body.data(), body.size());
        w.u32(kFabricProtocolVersion);
        w.u64(budget_bytes);
        w.u32(opts.max_inflight_per_tenant);
        w.u32(static_cast<uint32_t>(kDefaultMaxFrameBytes));
      }
      EnqueueReady(EncodeOkResponse(type, request_id, body));
      return true;
    }
    case MsgType::kOpenSession: {
      int service = -1;
      if (!daemon->AcquireService(&service)) {
        EnqueueError(type, request_id,
                     ResourceExhausted("no free service slots: close a session first"));
        return true;
      }
      auto session = std::make_shared<Session>();
      session->service = service;
      uint32_t session_id = next_session_id++;
      sessions[session_id] = std::move(session);
      std::vector<uint8_t> body(4);
      WireWriter w(body.data(), body.size());
      w.u32(session_id);
      EnqueueReady(EncodeOkResponse(type, request_id, body));
      return true;
    }
    case MsgType::kSolveRoot:
    case MsgType::kExtend:
      return HandleSolve(type, request_id, reader_state);
    case MsgType::kRelease: {
      uint32_t session_id = 0;
      uint64_t token = 0;
      if (!reader_state.u32(&session_id) || !reader_state.u64(&token)) {
        EnqueueError(type, request_id, InvalidArgument("malformed release"));
        return true;
      }
      auto it = sessions.find(session_id);
      if (it == sessions.end()) {
        EnqueueError(type, request_id, NotFound("unknown session"));
        return true;
      }
      Session& session = *it->second;
      {
        std::lock_guard<std::mutex> lock(session.mu);
        auto entry = session.tokens.find(token);
        if (entry == session.tokens.end()) {
          EnqueueError(type, request_id, NotFound("unknown token"));
          return true;
        }
        charged_bytes.fetch_sub(entry->second.charged);  // refund
        session.tokens.erase(entry);  // handle drops; pages reclaim
      }
      EnqueueReady(EncodeOkResponse(type, request_id, {}));
      return true;
    }
    case MsgType::kCloseSession: {
      uint32_t session_id = 0;
      if (!reader_state.u32(&session_id)) {
        EnqueueError(type, request_id, InvalidArgument("malformed close"));
        return true;
      }
      auto it = sessions.find(session_id);
      if (it == sessions.end()) {
        EnqueueError(type, request_id, NotFound("unknown session"));
        return true;
      }
      std::shared_ptr<Session> session = it->second;
      {
        std::lock_guard<std::mutex> lock(session->mu);
        session->closed = true;
        for (auto& [id, entry] : session->tokens) {
          charged_bytes.fetch_sub(entry.charged);
        }
        session->tokens.clear();
      }
      daemon->ReturnService(session->service);
      sessions.erase(it);
      EnqueueReady(EncodeOkResponse(type, request_id, {}));
      return true;
    }
    case MsgType::kTenantStats: {
      RemoteTenantStats stats;
      stats.budget_bytes = budget_bytes;
      stats.charged_bytes = charged_bytes.load();
      stats.inflight_limit = daemon->options_.max_inflight_per_tenant;
      stats.max_inflight_observed = max_inflight_observed;
      stats.budget_rejections = budget_rejections;
      stats.jobs_executed = jobs_executed.load();
      stats.sessions_open = static_cast<uint32_t>(sessions.size());
      EnqueueReady(EncodeOkResponse(type, request_id, EncodeTenantStatsBody(stats)));
      return true;
    }
  }
  EnqueueError(type, request_id, InvalidArgument("unknown message type"));
  return true;
}

bool DaemonConnection::HandleSolve(MsgType type, uint64_t request_id,
                                   WireReader& reader_state) {
  uint32_t session_id = 0;
  if (!reader_state.u32(&session_id)) {
    EnqueueError(type, request_id, InvalidArgument("malformed solve request"));
    return true;
  }
  auto it = sessions.find(session_id);
  if (it == sessions.end()) {
    EnqueueError(type, request_id, NotFound("unknown session"));
    return true;
  }
  std::shared_ptr<Session> session = it->second;

  // Resolve the parent: the service's pristine empty root for SolveRoot, the
  // named token for Extend. The job owns a clone, so a pipelined Release of
  // the parent can land while this job is still queued.
  Checkpoint parent_handle;
  if (type == MsgType::kExtend) {
    uint64_t parent_token = 0;
    if (!reader_state.u64(&parent_token)) {
      EnqueueError(type, request_id, InvalidArgument("malformed extend request"));
      return true;
    }
    std::lock_guard<std::mutex> lock(session->mu);
    auto entry = session->tokens.find(parent_token);
    if (entry == session->tokens.end()) {
      EnqueueError(type, request_id, NotFound("unknown parent token"));
      return true;
    }
    parent_handle = entry->second.cp.Clone();
  } else {
    parent_handle = daemon->roots_[static_cast<size_t>(session->service)].Clone();
  }

  // The remainder of the frame is the tenant's solver request, routed to the
  // guest decoder verbatim (the codec-compatibility contract).
  const uint8_t* body = nullptr;
  size_t body_len = reader_state.remaining();
  reader_state.span(&body, body_len);
  auto request = std::make_shared<std::vector<uint8_t>>(body, body + body_len);

  // Budget admission against settled charges: typed rejection, no slot spent.
  if (budget_bytes != 0 && charged_bytes.load() >= budget_bytes) {
    ++budget_rejections;
    EnqueueError(type, request_id,
                 ResourceExhausted("tenant snapshot byte budget exhausted"));
    return true;
  }

  uint64_t token_id;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    token_id = session->next_token++;
  }

  // Backpressure: block this tenant's reader until a slot frees. Other
  // tenants' readers are independent threads and keep running.
  {
    std::unique_lock<std::mutex> lock(mu);
    reader_cv.wait(lock, [this] {
      return closing || inflight < daemon->options_.max_inflight_per_tenant;
    });
    if (closing) {
      return false;
    }
    ++inflight;
    max_inflight_observed = std::max(max_inflight_observed, inflight);
  }

  auto parent = std::make_shared<Checkpoint>(std::move(parent_handle));
  DaemonConnection* conn = this;
  auto frame = daemon->pool_->Submit(
      session->service,
      [conn, session, parent, request, token_id, type,
       request_id](SolverService& s) -> std::vector<uint8_t> {
        // The session is thread-affine and its jobs run serially on this
        // worker, so the counter delta is exactly this job's footprint.
        uint64_t before = s.session_stats().pages_materialized;
        auto result = s.ExtendEncoded(*parent, request->data(), request->size());
        uint64_t delta_bytes =
            (s.session_stats().pages_materialized - before) * kPageSize;
        conn->jobs_executed.fetch_add(1);
        if (!result.ok()) {
          return EncodeErrorResponse(type, request_id, result.status());
        }
        RemoteOutcome outcome;
        outcome.result = result->result;
        outcome.token = token_id;
        outcome.num_vars = result->num_vars;
        outcome.conflicts = result->conflicts;
        outcome.model_bits = std::move(result->model_bits);
        {
          std::lock_guard<std::mutex> lock(session->mu);
          if (session->closed) {
            // Session closed while we were queued: drop the checkpoint (the
            // handle in `result` reclaims on destruction), charge nothing.
            return EncodeErrorResponse(type, request_id,
                                       BadState("session closed while solving"));
          }
          DaemonConnection::TokenEntry entry;
          entry.cp = std::move(result->token);
          entry.charged = delta_bytes;
          session->tokens.emplace(token_id, std::move(entry));
        }
        conn->charged_bytes.fetch_add(delta_bytes);
        return EncodeOkResponse(type, request_id, EncodeOutcomeBody(outcome));
      });
  Enqueue(std::move(frame), /*counted=*/true);
  return true;
}

}  // namespace internal

CheckpointDaemon::CheckpointDaemon(CheckpointDaemonOptions options)
    : options_(std::move(options)) {}

CheckpointDaemon::~CheckpointDaemon() { Stop(); }

Status CheckpointDaemon::BootFleet() {
  ServicePoolOptions<SolverService> pool_options;
  pool_options.num_services = options_.num_services;
  pool_options.service = options_.service;
  // Remote budgets are enforced per tenant by the daemon, not per session.
  pool_options.service.tuning.snapshot_byte_budget = 0;
  pool_ = std::make_unique<ServicePool<SolverService>>(std::move(pool_options));

  // Boot every service with the pristine empty root. A tenant's SolveRoot
  // extends from this snapshot, so recycled sessions always start from the
  // same state a fresh in-process service would.
  std::vector<std::future<Result<SolverService::Outcome>>> boots;
  boots.reserve(static_cast<size_t>(options_.num_services));
  for (int i = 0; i < options_.num_services; ++i) {
    boots.push_back(pool_->Submit(
        i, [this](SolverService& s) { return s.SolveRoot(empty_root_); }));
  }
  roots_.reserve(boots.size());
  for (auto& boot : boots) {
    Result<SolverService::Outcome> outcome = boot.get();
    if (!outcome.ok()) {
      return outcome.status();
    }
    roots_.push_back(std::move(outcome->token));
  }
  free_services_.reserve(static_cast<size_t>(options_.num_services));
  for (int i = options_.num_services - 1; i >= 0; --i) {
    free_services_.push_back(i);  // hand out low indices first
  }
  return OkStatus();
}

Result<std::unique_ptr<CheckpointDaemon>> CheckpointDaemon::StartUnix(
    const std::string& path, CheckpointDaemonOptions options) {
  return Start(Listener::ListenUnix(path), std::move(options));
}

Result<std::unique_ptr<CheckpointDaemon>> CheckpointDaemon::StartTcp(
    uint16_t port, CheckpointDaemonOptions options) {
  return Start(Listener::ListenTcp(port), std::move(options));
}

Result<std::unique_ptr<CheckpointDaemon>> CheckpointDaemon::Start(
    Result<Listener> listener, CheckpointDaemonOptions options) {
  if (!listener.ok()) {
    return listener.status();
  }
  std::unique_ptr<CheckpointDaemon> daemon(new CheckpointDaemon(std::move(options)));
  LW_RETURN_IF_ERROR(daemon->BootFleet());
  daemon->listener_ = *std::move(listener);
  daemon->accept_thread_ = std::thread([d = daemon.get()] { d->AcceptLoop(); });
  return daemon;
}

void CheckpointDaemon::AcceptLoop() {
  while (true) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      break;  // shutdown (or a fatal listener error): stop accepting
    }
    auto conn = std::make_unique<internal::DaemonConnection>();
    conn->daemon = this;
    conn->sock = *std::move(accepted);
    internal::DaemonConnection* c = conn.get();
    c->writer = std::thread([c] { c->WriterMain(); });
    c->reader = std::thread([c] { c->ReaderMain(); });
    std::lock_guard<std::mutex> lock(conn_mu_);
    auto done = std::partition(connections_.begin(), connections_.end(),
                               [](const auto& live) { return !live->finished; });
    std::for_each(done, connections_.end(), [](auto& conn) { conn->reader.join(); });
    connections_.erase(done, connections_.end());
    ++connections_accepted_;
    connections_.push_back(std::move(conn));
  }
}

bool CheckpointDaemon::AcquireService(int* service) {
  std::lock_guard<std::mutex> lock(free_mu_);
  if (free_services_.empty()) {
    return false;
  }
  *service = free_services_.back();
  free_services_.pop_back();
  return true;
}

void CheckpointDaemon::ReturnService(int service) {
  std::lock_guard<std::mutex> lock(free_mu_);
  free_services_.push_back(service);
}

CheckpointDaemon::Stats CheckpointDaemon::stats() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  Stats stats;
  stats.connections_accepted = connections_accepted_;
  stats.connections_dropped = connections_dropped_;
  return stats;
}

void CheckpointDaemon::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  listener_.Shutdown();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Sever every connection, then join readers (each reader joins its writer
  // and releases its sessions before exiting).
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& conn : connections_) {
      conn->Sever();
    }
  }
  for (auto& conn : connections_) {
    conn->reader.join();
  }
  connections_.clear();
  // All jobs retired and all tenant tokens dropped; release the empty roots
  // before the fleet (handles must not outlive their services).
  roots_.clear();
  pool_.reset();
  listener_.Close();
}

}  // namespace lw

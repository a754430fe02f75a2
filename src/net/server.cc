#include "net/server.h"

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "net/serde.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace hique::net {

namespace {

/// Stop pulling pages for a connection once this much output is buffered:
/// past it, TCP (and poll) own the pacing. Keeping it a few pages deep
/// lets the socket coalesce writes without detaching backpressure from
/// the stream buffer.
constexpr size_t kOutputHighWater = 16 * kPageSize;

}  // namespace

/// Per-connection state, owned by the event-loop thread. A connection is
/// a tiny state machine: handshake -> idle -> streaming -> idle ... ->
/// closing; `out` always drains before anything else happens to it.
struct Server::Connection {
  Socket sock;
  hique::Session session;
  bool handshaken = false;
  bool closing = false;      // flush remaining output, then drop
  bool cancel_requested = false;

  std::vector<uint8_t> in;   // bytes received, not yet framed
  size_t in_pos = 0;         // parse cursor into `in`
  std::vector<uint8_t> out;  // bytes framed, not yet sent
  size_t out_pos = 0;

  ResultSet cursor;          // valid while streaming
  bool streaming = false;
  uint32_t tuple_size = 0;
  uint64_t stream_pages = 0;
  uint64_t stream_rows = 0;

  std::unordered_map<uint32_t, PreparedStatement> stmts;
  uint32_t next_stmt_id = 1;

  bool HasOutput() const { return out_pos < out.size(); }
};

Server::Server(HiqueEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
  }
  if (!wake_.valid()) return Status::IoError("wake pipe creation failed");
  HQ_ASSIGN_OR_RETURN(listener_,
                      Socket::Listen(options_.address, options_.port,
                                     options_.backlog, &port_));
  HQ_RETURN_IF_ERROR(listener_.SetNonBlocking(true));
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  uptime_.Restart();
  loop_ = std::thread(&Server::Loop, this);
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  wake_.Wake();
  if (loop_.joinable()) loop_.join();
  listener_.Close();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void Server::SyncServerGauges() {
  struct WireGauges {
    obs::Gauge* accepted;
    obs::Gauge* rejected;
    obs::Gauge* active;
    obs::Gauge* started;
    obs::Gauge* finished;
    obs::Gauge* failed;
    obs::Gauge* cancelled;
    obs::Gauge* pages;
    obs::Gauge* rows;
    obs::Gauge* bytes;
    obs::Gauge* scrapes;
    obs::Gauge* wakeups;
    static const WireGauges& Get() {
      static WireGauges g = [] {
        auto& r = obs::Registry::Global();
        WireGauges w;
        w.accepted = r.GetGauge("hique_server_connections_accepted",
                                "Connections accepted since server start");
        w.rejected = r.GetGauge("hique_server_connections_rejected",
                                "Connections refused over max_connections");
        w.active = r.GetGauge("hique_server_connections_active",
                              "Currently open client connections");
        w.started = r.GetGauge("hique_server_queries_started",
                               "Statements that produced a result stream");
        w.finished = r.GetGauge("hique_server_queries_finished",
                                "Streams that reached ResultDone");
        w.failed = r.GetGauge("hique_server_queries_failed",
                              "Statements that ended in an Error frame");
        w.cancelled = r.GetGauge("hique_server_queries_cancelled",
                                 "Streams cancelled by Cancel/disconnect");
        w.pages = r.GetGauge("hique_server_pages_streamed",
                             "RowPage frames sent to clients");
        w.rows = r.GetGauge("hique_server_rows_streamed",
                            "Result rows sent to clients");
        w.bytes = r.GetGauge("hique_server_bytes_sent",
                             "Bytes written to client sockets");
        w.scrapes = r.GetGauge("hique_server_stats_requests",
                               "ServerStats scrapes served");
        w.wakeups = r.GetGauge("hique_server_loop_wakeups",
                               "Event-loop poll() returns");
        return w;
      }();
      return g;
    }
  };
  ServerStats s;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s = stats_;
  }
  const WireGauges& g = WireGauges::Get();
  g.accepted->Set(static_cast<int64_t>(s.connections_accepted));
  g.rejected->Set(static_cast<int64_t>(s.connections_rejected));
  g.active->Set(static_cast<int64_t>(s.connections_active));
  g.started->Set(static_cast<int64_t>(s.queries_started));
  g.finished->Set(static_cast<int64_t>(s.queries_finished));
  g.failed->Set(static_cast<int64_t>(s.queries_failed));
  g.cancelled->Set(static_cast<int64_t>(s.queries_cancelled));
  g.pages->Set(static_cast<int64_t>(s.pages_streamed));
  g.rows->Set(static_cast<int64_t>(s.rows_streamed));
  g.bytes->Set(static_cast<int64_t>(s.bytes_sent));
  g.scrapes->Set(static_cast<int64_t>(s.stats_requests));
  g.wakeups->Set(static_cast<int64_t>(s.loop_wakeups));
}

void Server::SendFrame(Connection* conn, uint8_t type,
                       const std::vector<uint8_t>& payload) {
  EncodeFrame(static_cast<MsgType>(type), payload, &conn->out);
}

void Server::SendError(Connection* conn, const Status& status) {
  WireWriter w;
  w.U32(StatusCodeToWire(status.code()));
  w.Str(status.message());
  SendFrame(conn, static_cast<uint8_t>(MsgType::kError), w.buffer());
}

void Server::AcceptPending() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return;  // listener broken: stop accepting this turn
    Socket sock = std::move(accepted).value();
    if (!sock.valid()) return;  // drained
    (void)sock.SetNonBlocking(true);
    (void)sock.SetNoDelay(true);
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(sock);
    if (conns_.size() >= options_.max_connections) {
      // Over capacity: tell the client why, flush, drop.
      SendError(conn.get(), Status::ExecError(
                                "server at max_connections (" +
                                std::to_string(options_.max_connections) +
                                ")"));
      conn->closing = true;
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.connections_rejected;
    } else {
      conn->session = engine_->OpenSession(options_.session);
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.connections_accepted;
      ++stats_.connections_active;
    }
    conns_.push_back(std::move(conn));
  }
}

bool Server::HandleReadable(Connection* conn) {
  uint8_t buf[16 * 1024];
  for (;;) {
    bool peer_closed = false;
    auto got = conn->sock.RecvSome(buf, sizeof(buf), &peer_closed);
    if (!got.ok()) return false;
    if (peer_closed) return false;
    if (got.value() == 0) break;  // would block
    conn->in.insert(conn->in.end(), buf, buf + got.value());
  }
  // Parse every complete frame.
  for (;;) {
    Frame frame;
    auto consumed = DecodeFrame(conn->in.data() + conn->in_pos,
                                conn->in.size() - conn->in_pos, &frame);
    if (!consumed.ok()) {
      SendError(conn, consumed.status());
      conn->closing = true;
      return true;
    }
    if (consumed.value() == 0) break;
    conn->in_pos += consumed.value();
    if (!HandleFrame(conn, frame)) return false;
    if (conn->closing) break;
  }
  // Compact the parse buffer.
  if (conn->in_pos > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<long>(conn->in_pos));
    conn->in_pos = 0;
  }
  return true;
}

bool Server::HandleFrame(Connection* conn, const Frame& frame) {
  WireReader r(frame.payload);
  if (conn->closing) return true;  // rejected/goodbye: ignore the rest
  if (!conn->handshaken) {
    if (frame.type != MsgType::kHello) {
      SendError(conn, Status::IoError("expected Hello frame"));
      conn->closing = true;
      return true;
    }
    uint32_t magic = 0;
    uint16_t version = 0;
    uint8_t endian = 0;
    std::string client_name;
    Status parsed = r.U32(&magic);
    if (parsed.ok()) parsed = r.U16(&version);
    if (parsed.ok()) parsed = r.U8(&endian);
    if (parsed.ok()) parsed = r.Str(&client_name);
    if (!parsed.ok() || magic != kMagic) {
      SendError(conn, Status::IoError("malformed Hello (bad magic)"));
      conn->closing = true;
      return true;
    }
    if (version != kProtocolVersion || endian != kLittleEndian) {
      SendError(conn,
                Status::IoError("unsupported protocol version/endianness"));
      conn->closing = true;
      return true;
    }
    WireWriter w;
    w.U16(kProtocolVersion);
    w.Str(options_.banner);
    SendFrame(conn, static_cast<uint8_t>(MsgType::kHelloAck), w.buffer());
    conn->handshaken = true;
    return true;
  }

  switch (frame.type) {
    case MsgType::kQuery: {
      if (conn->streaming) {
        SendError(conn, Status::IoError("statement already in flight"));
        conn->closing = true;
        return true;
      }
      std::string sql;
      if (!r.Str(&sql).ok()) {
        SendError(conn, Status::IoError("malformed Query frame"));
        conn->closing = true;
        return true;
      }
      auto rs = conn->session.QueryStream(sql);
      if (!rs.ok()) {
        SendError(conn, rs.status());  // statement-terminal, stay connected
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.queries_failed;
        return true;
      }
      StartStream(conn, std::move(rs).value());
      return true;
    }
    case MsgType::kPrepare: {
      if (conn->streaming) {
        SendError(conn, Status::IoError("statement already in flight"));
        conn->closing = true;
        return true;
      }
      std::string sql;
      if (!r.Str(&sql).ok()) {
        SendError(conn, Status::IoError("malformed Prepare frame"));
        conn->closing = true;
        return true;
      }
      auto stmt = conn->session.Prepare(sql);
      if (!stmt.ok()) {
        SendError(conn, stmt.status());
        return true;
      }
      uint32_t id = conn->next_stmt_id++;
      WireWriter w;
      w.U32(id);
      w.U32(static_cast<uint32_t>(stmt.value().num_placeholders()));
      w.Str(stmt.value().plan_signature());
      w.U8(stmt.value().cache_hit() ? 1 : 0);
      conn->stmts.emplace(id, std::move(stmt).value());
      SendFrame(conn, static_cast<uint8_t>(MsgType::kPrepareAck), w.buffer());
      return true;
    }
    case MsgType::kExecute: {
      if (conn->streaming) {
        SendError(conn, Status::IoError("statement already in flight"));
        conn->closing = true;
        return true;
      }
      uint32_t id = 0;
      uint32_t nparams = 0;
      Status parsed = r.U32(&id);
      if (parsed.ok()) parsed = r.U32(&nparams);
      std::vector<Value> values;
      for (uint32_t i = 0; parsed.ok() && i < nparams; ++i) {
        Value v;
        bool is_null = false;
        parsed = ReadValue(&r, &v, &is_null);
        if (parsed.ok() && is_null) {
          parsed = Status::BindError(
              "NULL parameter values are not supported by this engine");
        }
        if (parsed.ok()) values.push_back(std::move(v));
      }
      if (!parsed.ok()) {
        SendError(conn, parsed);
        return true;
      }
      auto it = conn->stmts.find(id);
      if (it == conn->stmts.end()) {
        SendError(conn, Status::NotFound("unknown statement id " +
                                         std::to_string(id)));
        return true;
      }
      auto rs = conn->session.ExecuteStream(it->second, values);
      if (!rs.ok()) {
        SendError(conn, rs.status());
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.queries_failed;
        return true;
      }
      StartStream(conn, std::move(rs).value());
      return true;
    }
    case MsgType::kCancel: {
      if (conn->streaming) {
        conn->cancel_requested = true;
        conn->cursor.Close();  // cancels within one page
      }
      return true;
    }
    case MsgType::kServerStats: {
      if (conn->streaming) {
        SendError(conn, Status::IoError("statement already in flight"));
        conn->closing = true;
        return true;
      }
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.stats_requests;
      }
      SyncServerGauges();
      WireWriter w;
      w.F64(uptime_.ElapsedSeconds());
      w.Str(engine_->RenderStats());
      SendFrame(conn, static_cast<uint8_t>(MsgType::kServerStatsReply),
                w.buffer());
      return true;
    }
    case MsgType::kClose: {
      if (conn->streaming) {
        conn->cursor.Close();
        conn->cursor = ResultSet();
        conn->streaming = false;
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.queries_cancelled;
      }
      SessionStats st = conn->session.Stats();
      WireWriter w;
      w.U64(st.submitted);
      w.U64(st.dispatched);
      w.U64(st.queue_depth);
      w.F64(st.total_wait_ms);
      w.U64(st.streams_opened);
      w.U64(st.threads_effective);
      w.F64(st.max_skew_ratio);
      SendFrame(conn, static_cast<uint8_t>(MsgType::kCloseAck), w.buffer());
      conn->closing = true;
      return true;
    }
    default:
      SendError(conn, Status::IoError("unexpected frame type " +
                                      std::to_string(static_cast<int>(
                                          frame.type))));
      conn->closing = true;
      return true;
  }
}

void Server::StartStream(Connection* conn, ResultSet cursor) {
  conn->cursor = std::move(cursor);
  conn->cursor.SetReadyCallback([this] { wake_.Wake(); });
  conn->streaming = true;
  conn->cancel_requested = false;
  conn->tuple_size = conn->cursor.schema().TupleSize();
  conn->stream_pages = 0;
  conn->stream_rows = 0;
  WireWriter w;
  WriteSchema(conn->cursor.schema(), &w);
  w.Str(conn->cursor.plan_signature());
  w.U8(conn->cursor.cache_hit() ? 1 : 0);
  w.I32(conn->cursor.library_opt_level());
  SendFrame(conn, static_cast<uint8_t>(MsgType::kResultSchema), w.buffer());
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++stats_.queries_started;
}

/// Pulls completed pages from the cursor into the output buffer until the
/// high-water mark, the stream ends, or the producer reports kPending.
/// Never blocks on the producer — that is the whole trick that lets one
/// thread serve every connection. After kPending the cursor's ready
/// callback wakes the loop.
void Server::PumpStream(Connection* conn) {
  while (conn->streaming && conn->out.size() - conn->out_pos <
                                kOutputHighWater) {
    Page* page = nullptr;
    ResultSet::PagePoll poll = conn->cursor.TryTakePage(&page);
    if (poll == ResultSet::PagePoll::kPending) return;
    if (poll == ResultSet::PagePoll::kPage) {
      // One RowPage frame per sealed page, serialized straight into the
      // output buffer: the raw NSM tuple bytes take exactly one copy from
      // the generated code's page to the socket buffer (no intermediate
      // payload vector on the hot path), then the page returns to the
      // stream's free-list.
      uint32_t rows = page->num_tuples;
      size_t data_bytes = static_cast<size_t>(rows) * conn->tuple_size;
      uint32_t payload_len = static_cast<uint32_t>(8 + data_bytes);
      std::vector<uint8_t>& out = conn->out;
      out.reserve(out.size() + kFrameHeaderSize + payload_len);
      for (int i = 0; i < 4; ++i) out.push_back((payload_len >> (8 * i)) & 0xff);
      out.push_back(static_cast<uint8_t>(MsgType::kRowPage));
      for (int i = 0; i < 4; ++i) out.push_back((rows >> (8 * i)) & 0xff);
      for (int i = 0; i < 4; ++i) {
        out.push_back((conn->tuple_size >> (8 * i)) & 0xff);
      }
      out.insert(out.end(), page->data, page->data + data_bytes);
      conn->cursor.RecyclePage(page);
      conn->stream_pages += 1;
      conn->stream_rows += rows;
      continue;
    }
    // kEnd: terminal frame.
    Status status = conn->cursor.status();
    if (conn->cancel_requested) {
      status = Status::ExecError("query cancelled");
    }
    if (status.ok()) {
      WireWriter w;
      w.U64(static_cast<uint64_t>(conn->cursor.rows_read()));
      w.F64(conn->cursor.timings().execute_ms);
      w.U64(conn->cursor.exec_stats().pages_touched);
      w.U64(conn->cursor.exec_stats().tuples_emitted);
      w.U32(conn->cursor.exec_stats().threads);
      w.U8(conn->cursor.cache_hit() ? 1 : 0);
      w.U64(static_cast<uint64_t>(conn->cursor.rows_affected()));
      SendFrame(conn, static_cast<uint8_t>(MsgType::kResultDone), w.buffer());
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.queries_finished;
      stats_.pages_streamed += conn->stream_pages;
      stats_.rows_streamed += conn->stream_rows;
    } else {
      SendError(conn, status);
      std::lock_guard<std::mutex> lk(stats_mu_);
      if (conn->cancel_requested) {
        ++stats_.queries_cancelled;
      } else {
        ++stats_.queries_failed;
      }
      stats_.pages_streamed += conn->stream_pages;
      stats_.rows_streamed += conn->stream_rows;
    }
    conn->cursor = ResultSet();
    conn->streaming = false;
  }
}

bool Server::FlushAndPump(Connection* conn) {
  for (;;) {
    if (conn->HasOutput()) {
      auto sent = conn->sock.SendSome(conn->out.data() + conn->out_pos,
                                      conn->out.size() - conn->out_pos);
      if (!sent.ok()) return false;
      if (sent.value() == 0) return true;  // socket full: wait for POLLOUT
      conn->out_pos += sent.value();
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.bytes_sent += sent.value();
      }
      if (conn->out_pos == conn->out.size()) {
        conn->out.clear();
        conn->out_pos = 0;
      } else {
        continue;  // partial write: try to push the rest now
      }
    }
    if (conn->streaming && !conn->HasOutput()) {
      PumpStream(conn);
      if (conn->HasOutput()) continue;  // new frames: try to send them
    }
    return true;
  }
}

void Server::DropConnection(size_t index) {
  Connection* conn = conns_[index].get();
  if (conn->streaming) {
    // Mid-stream disconnect: closing the cursor flips the stream's cancel
    // flag — the compiled query observes it within one result page.
    conn->cursor.Close();
    conn->cursor = ResultSet();
    conn->streaming = false;
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.queries_cancelled;
    stats_.pages_streamed += conn->stream_pages;
    stats_.rows_streamed += conn->stream_rows;
  }
  if (conn->session.valid()) {
    // Rejected-over-capacity connections never opened a session and were
    // never counted active.
    conn->session.Close();
    std::lock_guard<std::mutex> lk(stats_mu_);
    --stats_.connections_active;
  }
  conns_.erase(conns_.begin() + static_cast<long>(index));
}

void Server::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (auto& conn : conns_) {
      short events = POLLIN;
      if (conn->HasOutput()) events |= POLLOUT;
      fds.push_back({conn->sock.fd(), events, 0});
    }
    // No timeout: a socket, the listener or the wake pipe ends each sleep.
    int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.loop_wakeups;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed: shut down rather than spin
    }
    wake_.Drain();  // before servicing, so no wake-up is lost
    // Note: new connections append to conns_ AFTER fds was built, so only
    // the first `polled` entries have poll results this turn; fresh ones
    // are serviced next iteration.
    size_t polled = conns_.size();
    if (fds[1].revents & POLLIN) AcceptPending();

    // Service connections back-to-front so DropConnection's erase cannot
    // shift an index we still need.
    for (size_t i = polled; i-- > 0;) {
      Connection* conn = conns_[i].get();
      short revents = fds[i + 2].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        DropConnection(i);
        continue;
      }
      if ((revents & POLLIN) && !HandleReadable(conn)) {
        DropConnection(i);
        continue;
      }
      if (!FlushAndPump(conn)) {
        DropConnection(i);
        continue;
      }
      if (conn->closing && !conn->HasOutput()) DropConnection(i);
    }
  }
  // Shutdown: cancel streams, close sessions and sockets.
  for (size_t i = conns_.size(); i-- > 0;) DropConnection(i);
}

}  // namespace hique::net

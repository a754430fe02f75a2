#include "net/client.h"

#include <utility>

#include "net/serde.h"
#include "util/macros.h"

namespace hique::net {

// ---- RemoteResultSet -------------------------------------------------------

RemoteResultSet::~RemoteResultSet() { Close(); }

RemoteResultSet::RemoteResultSet(RemoteResultSet&& other) noexcept {
  *this = std::move(other);
}

RemoteResultSet& RemoteResultSet::operator=(RemoteResultSet&& other) noexcept {
  if (this == &other) return *this;
  Close();
  client_ = other.client_;
  schema_ = std::move(other.schema_);
  tuple_size_ = other.tuple_size_;
  plan_signature_ = std::move(other.plan_signature_);
  cache_hit_ = other.cache_hit_;
  opt_level_ = other.opt_level_;
  page_ = std::move(other.page_);
  page_rows_ = other.page_rows_;
  row_ = other.row_;
  row_valid_ = other.row_valid_;
  done_ = other.done_;
  end_status_ = other.end_status_;
  rows_read_ = other.rows_read_;
  total_rows_ = other.total_rows_;
  server_execute_ms_ = other.server_execute_ms_;
  other.client_ = nullptr;
  if (client_ != nullptr && client_->open_cursor_ == &other) {
    client_->open_cursor_ = this;
  }
  return *this;
}

bool RemoteResultSet::FetchPage() {
  page_rows_ = 0;
  row_ = 0;
  row_valid_ = false;
  for (;;) {
    Frame frame;
    Status s = client_->RecvFrame(&frame);
    if (!s.ok()) {
      end_status_ = s;
      done_ = true;
      return false;
    }
    switch (frame.type) {
      case MsgType::kRowPage: {
        WireReader r(frame.payload);
        uint32_t rows = 0, tuple_size = 0;
        Status parsed = r.U32(&rows);
        if (parsed.ok()) parsed = r.U32(&tuple_size);
        const uint8_t* bytes = nullptr;
        if (parsed.ok() && tuple_size != tuple_size_) {
          parsed = Status::IoError("row page tuple size mismatch");
        }
        if (parsed.ok()) {
          parsed = r.Bytes(static_cast<size_t>(rows) * tuple_size, &bytes);
        }
        if (!parsed.ok()) {
          end_status_ = parsed;
          done_ = true;
          return false;
        }
        if (rows == 0) continue;  // defensive: empty page, fetch the next
        page_.assign(bytes, bytes + static_cast<size_t>(rows) * tuple_size);
        page_rows_ = rows;
        return true;
      }
      case MsgType::kResultDone: {
        WireReader r(frame.payload);
        uint64_t pages_touched, tuples_emitted;
        uint32_t threads;
        uint8_t cache_hit;
        uint64_t affected = 0;
        Status parsed = r.U64(&total_rows_);
        if (parsed.ok()) parsed = r.F64(&server_execute_ms_);
        if (parsed.ok()) parsed = r.U64(&pages_touched);
        if (parsed.ok()) parsed = r.U64(&tuples_emitted);
        if (parsed.ok()) parsed = r.U32(&threads);
        if (parsed.ok()) parsed = r.U8(&cache_hit);
        if (parsed.ok()) parsed = r.U64(&affected);
        if (parsed.ok()) rows_affected_ = static_cast<int64_t>(affected);
        end_status_ = parsed;
        done_ = true;
        return false;
      }
      case MsgType::kError: {
        end_status_ = Client::DecodeError(frame);
        done_ = true;
        return false;
      }
      default: {
        end_status_ = Status::IoError(
            "unexpected frame type " +
            std::to_string(static_cast<int>(frame.type)) +
            " inside a result stream");
        done_ = true;
        return false;
      }
    }
  }
}

bool RemoteResultSet::Next() {
  if (!valid() || done_ == true) {
    if (done_ && row_valid_) row_valid_ = false;
    return false;
  }
  if (row_valid_ && row_ + 1 < page_rows_) {
    ++row_;
    ++rows_read_;
    return true;
  }
  if (!row_valid_ && page_rows_ > 0) {
    row_ = 0;
    row_valid_ = true;
    ++rows_read_;
    return true;
  }
  if (!FetchPage()) {
    // Stream over; release the connection for the next statement.
    if (client_ != nullptr && client_->open_cursor_ == this) {
      client_->open_cursor_ = nullptr;
    }
    return false;
  }
  row_ = 0;
  row_valid_ = true;
  ++rows_read_;
  return true;
}

const uint8_t* RemoteResultSet::RowBytes() const {
  HQ_CHECK_MSG(valid() && row_valid_, "no current row");
  return page_.data() + static_cast<size_t>(row_) * tuple_size_;
}

Value RemoteResultSet::Get(size_t column) const {
  return schema_.GetValue(RowBytes(), column);
}

std::vector<Value> RemoteResultSet::Row() const {
  const uint8_t* tuple = RowBytes();
  std::vector<Value> row;
  row.reserve(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    row.push_back(schema_.GetValue(tuple, c));
  }
  return row;
}

void RemoteResultSet::Close() {
  if (!valid()) return;
  Client* client = client_;
  if (!done_ && client->connected()) {
    // Cancel the server side, then drain to the terminal frame so the
    // connection is statement-aligned again.
    (void)client->Cancel();
    while (!done_) {
      if (!FetchPage() && done_) break;
    }
  }
  if (client->open_cursor_ == this) client->open_cursor_ = nullptr;
  client_ = nullptr;
  page_.clear();
  page_rows_ = 0;
  row_valid_ = false;
}

// ---- Client ----------------------------------------------------------------

Client::~Client() {
  if (connected()) {
    if (open_cursor_ != nullptr) {
      open_cursor_->Close();
    }
    (void)Close();
  }
}

Client::Client(Client&& other) noexcept { *this = std::move(other); }

Client& Client::operator=(Client&& other) noexcept {
  if (this == &other) return *this;
  HQ_CHECK_MSG(open_cursor_ == nullptr && other.open_cursor_ == nullptr,
               "cannot move a Client with an open cursor");
  sock_ = std::move(other.sock_);
  server_banner_ = std::move(other.server_banner_);
  return *this;
}

Status Client::SendFrame(MsgType type, const std::vector<uint8_t>& payload) {
  if (!connected()) return Status::IoError("client is not connected");
  std::vector<uint8_t> frame;
  EncodeFrame(type, payload, &frame);
  return sock_.SendAll(frame.data(), frame.size());
}

Status Client::RecvFrame(Frame* frame) {
  if (!connected()) return Status::IoError("client is not connected");
  uint8_t header[kFrameHeaderSize];
  HQ_RETURN_IF_ERROR(sock_.RecvAll(header, sizeof(header)));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[i]) << (8 * i);
  }
  if (len > kMaxPayload) {
    return Status::IoError("frame payload exceeds protocol maximum");
  }
  frame->type = static_cast<MsgType>(header[4]);
  frame->payload.resize(len);
  if (len > 0) {
    HQ_RETURN_IF_ERROR(sock_.RecvAll(frame->payload.data(), len));
  }
  return Status::OK();
}

Status Client::DecodeError(const Frame& frame) {
  WireReader r(frame.payload);
  uint32_t code = 0;
  std::string message;
  if (!r.U32(&code).ok() || !r.Str(&message).ok()) {
    return Status::IoError("malformed Error frame");
  }
  return Status(WireToStatusCode(code), message);
}

Result<Client> Client::Connect(const std::string& address, uint16_t port,
                               const std::string& client_name) {
  Client client;
  HQ_ASSIGN_OR_RETURN(client.sock_, Socket::Connect(address, port));
  WireWriter w;
  w.U32(kMagic);
  w.U16(kProtocolVersion);
  w.U8(kLittleEndian);
  w.Str(client_name);
  HQ_RETURN_IF_ERROR(client.SendFrame(MsgType::kHello, w.buffer()));
  Frame reply;
  HQ_RETURN_IF_ERROR(client.RecvFrame(&reply));
  if (reply.type == MsgType::kError) return DecodeError(reply);
  if (reply.type != MsgType::kHelloAck) {
    return Status::IoError("handshake: expected HelloAck");
  }
  WireReader r(reply.payload);
  uint16_t version = 0;
  HQ_RETURN_IF_ERROR(r.U16(&version));
  HQ_RETURN_IF_ERROR(r.Str(&client.server_banner_));
  if (version != kProtocolVersion) {
    return Status::IoError("server speaks protocol version " +
                           std::to_string(version));
  }
  return client;
}

Result<RemoteResultSet> Client::StartStream() {
  Frame reply;
  HQ_RETURN_IF_ERROR(RecvFrame(&reply));
  if (reply.type == MsgType::kError) return DecodeError(reply);
  if (reply.type != MsgType::kResultSchema) {
    return Status::IoError("expected ResultSchema frame");
  }
  WireReader r(reply.payload);
  RemoteResultSet rs;
  HQ_RETURN_IF_ERROR(ReadSchema(&r, &rs.schema_));
  HQ_RETURN_IF_ERROR(r.Str(&rs.plan_signature_));
  uint8_t cache_hit = 0;
  HQ_RETURN_IF_ERROR(r.U8(&cache_hit));
  HQ_RETURN_IF_ERROR(r.I32(&rs.opt_level_));
  rs.cache_hit_ = cache_hit != 0;
  rs.tuple_size_ = rs.schema_.TupleSize();
  rs.client_ = this;
  // The cursor registers itself; the move into the Result re-registers
  // through the move assignment.
  open_cursor_ = &rs;
  return rs;
}

Result<RemoteResultSet> Client::Query(const std::string& sql) {
  if (open_cursor_ != nullptr) {
    return Status::InvalidArgument(
        "a result stream is already open on this connection");
  }
  WireWriter w;
  w.Str(sql);
  HQ_RETURN_IF_ERROR(SendFrame(MsgType::kQuery, w.buffer()));
  return StartStream();
}

Result<RemoteStatement> Client::Prepare(const std::string& sql) {
  if (open_cursor_ != nullptr) {
    return Status::InvalidArgument(
        "a result stream is already open on this connection");
  }
  WireWriter w;
  w.Str(sql);
  HQ_RETURN_IF_ERROR(SendFrame(MsgType::kPrepare, w.buffer()));
  Frame reply;
  HQ_RETURN_IF_ERROR(RecvFrame(&reply));
  if (reply.type == MsgType::kError) return DecodeError(reply);
  if (reply.type != MsgType::kPrepareAck) {
    return Status::IoError("expected PrepareAck frame");
  }
  WireReader r(reply.payload);
  RemoteStatement stmt;
  uint8_t cache_hit = 0;
  HQ_RETURN_IF_ERROR(r.U32(&stmt.id));
  HQ_RETURN_IF_ERROR(r.U32(&stmt.num_placeholders));
  HQ_RETURN_IF_ERROR(r.Str(&stmt.plan_signature));
  HQ_RETURN_IF_ERROR(r.U8(&cache_hit));
  stmt.cache_hit = cache_hit != 0;
  return stmt;
}

Result<RemoteResultSet> Client::Execute(const RemoteStatement& stmt,
                                        const std::vector<Value>& values) {
  if (open_cursor_ != nullptr) {
    return Status::InvalidArgument(
        "a result stream is already open on this connection");
  }
  if (stmt.id == 0) {
    return Status::InvalidArgument("invalid RemoteStatement");
  }
  WireWriter w;
  w.U32(stmt.id);
  w.U32(static_cast<uint32_t>(values.size()));
  for (const Value& v : values) WriteValue(v, &w);
  HQ_RETURN_IF_ERROR(SendFrame(MsgType::kExecute, w.buffer()));
  return StartStream();
}

Status Client::Cancel() {
  return SendFrame(MsgType::kCancel, {});
}

Result<RemoteServerStats> Client::ServerStats() {
  if (!connected()) return Status::IoError("client is not connected");
  if (open_cursor_ != nullptr) {
    return Status::InvalidArgument(
        "a result stream is already open on this connection");
  }
  HQ_RETURN_IF_ERROR(SendFrame(MsgType::kServerStats, {}));
  Frame reply;
  HQ_RETURN_IF_ERROR(RecvFrame(&reply));
  if (reply.type == MsgType::kError) return DecodeError(reply);
  if (reply.type != MsgType::kServerStatsReply) {
    return Status::IoError("expected ServerStatsReply frame");
  }
  WireReader r(reply.payload);
  RemoteServerStats stats;
  HQ_RETURN_IF_ERROR(r.F64(&stats.uptime_seconds));
  HQ_RETURN_IF_ERROR(r.Str(&stats.prometheus_text));
  return stats;
}

Result<RemoteSessionStats> Client::Close() {
  if (!connected()) return Status::IoError("client is not connected");
  if (open_cursor_ != nullptr) open_cursor_->Close();
  HQ_RETURN_IF_ERROR(SendFrame(MsgType::kClose, {}));
  Frame reply;
  for (;;) {
    Status s = RecvFrame(&reply);
    if (!s.ok()) {
      sock_.Close();
      return s;
    }
    if (reply.type == MsgType::kCloseAck) break;
    // Skip stream leftovers racing ahead of the CloseAck.
  }
  WireReader r(reply.payload);
  RemoteSessionStats stats;
  HQ_RETURN_IF_ERROR(r.U64(&stats.submitted));
  HQ_RETURN_IF_ERROR(r.U64(&stats.dispatched));
  HQ_RETURN_IF_ERROR(r.U64(&stats.queue_depth));
  HQ_RETURN_IF_ERROR(r.F64(&stats.total_wait_ms));
  HQ_RETURN_IF_ERROR(r.U64(&stats.streams_opened));
  HQ_RETURN_IF_ERROR(r.U64(&stats.threads_effective));
  HQ_RETURN_IF_ERROR(r.F64(&stats.max_skew_ratio));
  sock_.Close();
  return stats;
}

void Client::Abort() {
  if (open_cursor_ != nullptr) {
    // Detach without the cancel/drain dance: the server sees a dead
    // socket, not a polite goodbye.
    open_cursor_->client_ = nullptr;
    open_cursor_ = nullptr;
  }
  sock_.Close();
}

}  // namespace hique::net

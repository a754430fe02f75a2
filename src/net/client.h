#ifndef HIQUE_NET_CLIENT_H_
#define HIQUE_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace hique::net {

class Client;

/// A remotely prepared statement: server-side handle id plus the metadata
/// the PrepareAck carried. Value-semantic; only meaningful with the Client
/// that prepared it.
struct RemoteStatement {
  uint32_t id = 0;
  uint32_t num_placeholders = 0;
  std::string plan_signature;
  bool cache_hit = false;  // the server reused a cached compiled library
};

/// The server's metrics dump (protocol v5 ServerStats/ServerStatsReply):
/// seconds since the server started plus the full engine metrics registry
/// rendered as Prometheus text exposition format.
struct RemoteServerStats {
  double uptime_seconds = 0;
  std::string prometheus_text;
};

/// Session metrics the server reports in its CloseAck frame (mirrors
/// hique::SessionStats for the connection's server-side session).
struct RemoteSessionStats {
  uint64_t streams_opened = 0;
  uint64_t threads_effective = 0;  // executor width of the last statement
  double max_skew_ratio = 0;       // worst per-barrier skew ratio observed
};

/// Pull cursor over one remote query's result stream, mirroring the
/// in-process ResultSet API: Next / Get / Row / RowBytes / status. Row
/// pages arrive lazily — Next() reads the next RowPage frame from the
/// socket only once the current one is drained, so a slow consumer
/// backpressures the server through TCP and from there into the compiled
/// query itself.
///
/// Exactly one RemoteResultSet can be open per Client; it must be drained
/// or Close()d before the next statement. Close() before the end cancels
/// the server-side query.
class RemoteResultSet {
 public:
  RemoteResultSet() = default;
  ~RemoteResultSet();
  RemoteResultSet(RemoteResultSet&&) noexcept;
  RemoteResultSet& operator=(RemoteResultSet&&) noexcept;
  RemoteResultSet(const RemoteResultSet&) = delete;
  RemoteResultSet& operator=(const RemoteResultSet&) = delete;

  bool valid() const { return client_ != nullptr; }
  const Schema& schema() const { return schema_; }
  const std::string& plan_signature() const { return plan_signature_; }
  bool cache_hit() const { return cache_hit_; }
  int library_opt_level() const { return opt_level_; }

  /// Advances to the next row; false at end-of-stream or error (check
  /// status()). Blocks on the socket while the server computes.
  bool Next();

  const uint8_t* RowBytes() const;
  Value Get(size_t column) const;
  std::vector<Value> Row() const;

  Status status() const { return end_status_; }
  int64_t rows_read() const { return rows_read_; }

  /// Server-reported summary, valid after the stream ended cleanly.
  uint64_t total_rows() const { return total_rows_; }
  double server_execute_ms() const { return server_execute_ms_; }

  /// Rows a DML statement inserted/updated/deleted (protocol v4); zero for
  /// reads. Valid after the stream ended cleanly — a DML cursor produces
  /// no row pages, so Next() returning false immediately is the normal
  /// read-your-writes handshake.
  int64_t rows_affected() const { return rows_affected_; }

  /// Early close: sends Cancel and drains the stream to its terminal
  /// frame, leaving the connection ready for the next statement.
  /// Idempotent; the destructor calls it.
  void Close();

 private:
  friend class Client;

  bool FetchPage();  // reads frames until RowPage / terminal

  Client* client_ = nullptr;
  Schema schema_;
  uint32_t tuple_size_ = 0;
  std::string plan_signature_;
  bool cache_hit_ = false;
  int opt_level_ = 0;

  std::vector<uint8_t> page_;  // raw tuples of the current RowPage
  uint32_t page_rows_ = 0;
  uint32_t row_ = 0;
  bool row_valid_ = false;
  bool done_ = false;
  Status end_status_ = Status::OK();
  int64_t rows_read_ = 0;
  uint64_t total_rows_ = 0;
  double server_execute_ms_ = 0;
  int64_t rows_affected_ = 0;
};

/// Blocking client for the hiqued wire protocol: one TCP connection = one
/// server-side engine::Session. Connect/Query/Prepare/Execute/Cancel/
/// Close mirror the in-process Session API. Not thread-safe — one thread
/// drives a Client, like a Session cursor.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// TCP connect + Hello/HelloAck handshake.
  static Result<Client> Connect(const std::string& address, uint16_t port,
                                const std::string& client_name = "hique-cc");

  bool connected() const { return sock_.valid(); }
  const std::string& server_banner() const { return server_banner_; }

  /// Sends the SQL and returns a cursor positioned before the first row.
  /// A server-side planning/compile error comes back as the Result status.
  Result<RemoteResultSet> Query(const std::string& sql);

  /// Prepares a `?`-parameterized statement server-side.
  Result<RemoteStatement> Prepare(const std::string& sql);

  /// Executes a prepared statement with one value per placeholder.
  Result<RemoteResultSet> Execute(const RemoteStatement& stmt,
                                  const std::vector<Value>& values = {});

  /// Fetches the server's metrics dump (protocol v5). Only between
  /// statements — an open cursor must be drained or closed first. The
  /// connection stays usable afterwards.
  Result<RemoteServerStats> ServerStats();

  /// Cancels the in-flight statement (used by RemoteResultSet::Close; may
  /// be called directly from the consuming thread between Next calls).
  Status Cancel();

  /// Graceful goodbye: Close frame, CloseAck with the server session's
  /// stats, socket shutdown. The connection is unusable after.
  Result<RemoteSessionStats> Close();

  /// Hard drop without the Close handshake — from the server's view this
  /// is a client crash / network failure; an in-flight query is cancelled
  /// by the disconnect path. Mainly for failure-injection tests.
  void Abort();

 private:
  friend class RemoteResultSet;

  Status SendFrame(MsgType type, const std::vector<uint8_t>& payload);
  Status RecvFrame(Frame* frame);
  /// Decodes a kError payload into a Status.
  static Status DecodeError(const Frame& frame);
  Result<RemoteResultSet> StartStream();

  Socket sock_;
  std::string server_banner_;
  RemoteResultSet* open_cursor_ = nullptr;  // at most one
};

}  // namespace hique::net

#endif  // HIQUE_NET_CLIENT_H_

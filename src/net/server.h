#ifndef HIQUE_NET_SERVER_H_
#define HIQUE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/status.h"
#include "util/timer.h"

namespace hique::net {

/// Wire front-end settings: where to listen and how many concurrent
/// client connections to accept. Port 0 binds an ephemeral port (port()
/// reports the resolved one).
struct ServerOptions {
  std::string address = "127.0.0.1";
  uint16_t port = 0;
  uint32_t max_connections = 64;
  int backlog = 64;
  /// Per-connection session settings (threads cap, stream buffer bound —
  /// the stream buffer is also the backpressure window a slow client can
  /// hold open before the query throttles).
  SessionOptions session;
  std::string banner = "hiqued";
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over max_connections
  uint64_t connections_active = 0;
  uint64_t queries_started = 0;
  uint64_t queries_finished = 0;   // streamed to ResultDone
  uint64_t queries_failed = 0;     // terminal Error frame
  uint64_t queries_cancelled = 0;  // client Cancel or mid-stream disconnect
  uint64_t pages_streamed = 0;     // RowPage frames sent
  uint64_t rows_streamed = 0;
  uint64_t bytes_sent = 0;
  uint64_t stats_requests = 0;     // v5 ServerStats scrapes served
  uint64_t loop_wakeups = 0;       // event-loop poll() returns
};

/// hiqued: the wire-protocol front-end. One poll-driven event-loop thread
/// multiplexes every client connection; each accepted connection gets its
/// own engine::Session, and result pages stream from the session's
/// ResultSet straight into socket frames. The loop sleeps without a
/// timeout until a socket, the listener or the wake pipe fires; a cursor
/// that answered kPending writes the wake pipe from its producer thread
/// once its next page or its end of stream is ready. Backpressure is
/// end-to-end by construction: a connection stops pulling pages once its
/// output buffer reaches the high-water mark, the bounded StreamCore queue
/// fills, and the producer (the compiled query) blocks at its next
/// result-page boundary until the client catches up. A mid-stream
/// disconnect closes the cursor, which cancels the query within one page.
///
/// Query execution itself is not on the event loop: every open cursor has
/// its producer thread (and the engine's shared worker pool behind it),
/// so N connections make progress concurrently while one thread owns all
/// socket I/O.
class Server {
 public:
  explicit Server(HiqueEngine* engine, ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loop. After an OK return, port()
  /// is the resolved listen port (meaningful with ephemeral port 0).
  Status Start();

  /// Stops accepting, cancels in-flight streams, closes every connection
  /// and joins the event loop. Idempotent; the destructor calls it.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }
  const std::string& address() const { return options_.address; }
  ServerStats stats() const;

 private:
  struct Connection;

  void Loop();
  void AcceptPending();
  /// False => drop the connection (I/O error or peer went away).
  bool HandleReadable(Connection* conn);
  bool HandleFrame(Connection* conn, const Frame& frame);
  void StartStream(Connection* conn, ResultSet cursor);
  bool FlushAndPump(Connection* conn);
  void PumpStream(Connection* conn);
  void DropConnection(size_t index);
  void SendFrame(Connection* conn, uint8_t type,
                 const std::vector<uint8_t>& payload);
  void SendError(Connection* conn, const Status& status);
  /// Mirrors the exact ServerStats counters into the global metrics
  /// registry (hique_server_*) — called at scrape time, so the per-frame
  /// hot path pays nothing extra.
  void SyncServerGauges();

  HiqueEngine* engine_;
  ServerOptions options_;
  uint16_t port_ = 0;

  Socket listener_;
  WakePipe wake_;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  std::vector<std::unique_ptr<Connection>> conns_;  // loop thread only

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  WallTimer uptime_;  // Start() -> now, reported in ServerStatsReply
};

}  // namespace hique::net

#endif  // HIQUE_NET_SERVER_H_

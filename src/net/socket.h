#ifndef HIQUE_NET_SOCKET_H_
#define HIQUE_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "util/status.h"

namespace hique::net {

/// Thin RAII + error-mapping layer over POSIX TCP sockets — just enough
/// for the hiqued server (non-blocking, poll-driven) and the blocking
/// client library. IPv4 only, matching the prototype scope.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int Release() { return std::exchange(fd_, -1); }
  void Close();

  Status SetNonBlocking(bool on);
  Status SetNoDelay(bool on);

  /// Listening socket bound to address:port (port 0 = ephemeral); the
  /// resolved port is written to *bound_port.
  static Result<Socket> Listen(const std::string& address, uint16_t port,
                               int backlog, uint16_t* bound_port);

  /// Accepts one pending connection (listening socket must be
  /// non-blocking): an invalid Socket when no connection is pending.
  Result<Socket> Accept();

  /// Blocking connect.
  static Result<Socket> Connect(const std::string& address, uint16_t port);

  /// Blocking exact-count I/O for the client library. RecvAll fails with
  /// IoError("connection closed by peer") on a clean remote shutdown.
  Status SendAll(const uint8_t* data, size_t n);
  Status RecvAll(uint8_t* data, size_t n);

  /// Non-blocking single-shot I/O for the server's event loop. Returns the
  /// byte count (0 = would block), or an error. `peer_closed` is set when
  /// the peer shut the connection down (recv side).
  Result<size_t> SendSome(const uint8_t* data, size_t n);
  Result<size_t> RecvSome(uint8_t* data, size_t n, bool* peer_closed);

 private:
  int fd_ = -1;
};

/// A pipe whose read end can sit in a poll set so other threads can wake
/// the event loop (result producers, stop requests).
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  bool valid() const { return read_fd_ >= 0; }
  int read_fd() const { return read_fd_; }
  int write_fd() const { return write_fd_; }
  void Wake();
  void Drain();

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

}  // namespace hique::net

#endif  // HIQUE_NET_SOCKET_H_

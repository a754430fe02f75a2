#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace hique::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status ParseAddress(const std::string& address, in_addr* out) {
  std::string addr = address.empty() ? "127.0.0.1" : address;
  if (inet_pton(AF_INET, addr.c_str(), out) != 1) {
    return Status::InvalidArgument("unparsable IPv4 address: " + addr);
  }
  return Status::OK();
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::SetNonBlocking(bool on) {
  int flags = fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  flags = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd_, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

Status Socket::SetNoDelay(bool on) {
  int v = on ? 1 : 0;
  if (setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)) < 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

Result<Socket> Socket::Listen(const std::string& address, uint16_t port,
                              int backlog, uint16_t* bound_port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  HQ_RETURN_IF_ERROR(ParseAddress(address, &addr.sin_addr));

  // Every descriptor is close-on-exec: a runtime g++ spawned by the engine
  // must not inherit the server's sockets or its wake pipe.
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return Errno("socket");
  int reuse = 1;
  (void)setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  if (bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind " + address + ":" + std::to_string(port));
  }
  if (listen(sock.fd(), backlog) < 0) return Errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in resolved;
    socklen_t len = sizeof(resolved);
    if (getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&resolved), &len) <
        0) {
      return Errno("getsockname");
    }
    *bound_port = ntohs(resolved.sin_port);
  }
  return sock;
}

Result<Socket> Socket::Accept() {
  int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return Socket();  // nothing pending
    }
    return Errno("accept");
  }
  return Socket(fd);
}

Result<Socket> Socket::Connect(const std::string& address, uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  HQ_RETURN_IF_ERROR(ParseAddress(address, &addr.sin_addr));

  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return Errno("socket");
  if (connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("connect " + address + ":" + std::to_string(port));
  }
  (void)sock.SetNoDelay(true);
  return sock;
}

Status Socket::SendAll(const uint8_t* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t r = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status Socket::RecvAll(uint8_t* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd_, data + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (r == 0) return Status::IoError("connection closed by peer");
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Result<size_t> Socket::SendSome(const uint8_t* data, size_t n) {
  for (;;) {
    ssize_t r = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (r >= 0) return static_cast<size_t>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Errno("send");
  }
}

Result<size_t> Socket::RecvSome(uint8_t* data, size_t n, bool* peer_closed) {
  *peer_closed = false;
  for (;;) {
    ssize_t r = ::recv(fd_, data, n, 0);
    if (r > 0) return static_cast<size_t>(r);
    if (r == 0) {
      *peer_closed = true;
      return size_t{0};
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Errno("recv");
  }
}

WakePipe::WakePipe() {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC | O_NONBLOCK) == 0) {
    read_fd_ = fds[0];
    write_fd_ = fds[1];
  }
}

WakePipe::~WakePipe() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
}

void WakePipe::Wake() {
  if (write_fd_ < 0) return;
  uint8_t b = 1;
  (void)!::write(write_fd_, &b, 1);
}

void WakePipe::Drain() {
  if (read_fd_ < 0) return;
  uint8_t buf[64];
  while (::read(read_fd_, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace hique::net

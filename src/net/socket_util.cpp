#include "net/socket_util.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/error.h"

namespace hoh::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw common::ResourceError(what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw common::ConfigError("bad host address: " + host);
  }
  return addr;
}

}  // namespace

int tcp_listen(const std::string& host, std::uint16_t port,
               std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (::listen(fd, 16) != 0) throw_errno("listen()");
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

int tcp_accept(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return -1;
  }
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string what =
        "connect(" + host + ":" + std::to_string(port) + ")";
    ::close(fd);
    throw_errno(what);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void write_frame(int fd, const Envelope& envelope) {
  const std::vector<std::uint8_t> bytes = encode_frame(envelope);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw_errno("write_frame");
  }
}

bool read_frame(int fd, RingBuffer& buf, Envelope* out) {
  std::uint8_t chunk[4096];
  while (!pop_frame(buf, out)) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      if (buf.empty()) return false;  // orderly EOF between frames
      throw common::ResourceError("read_frame: EOF mid-frame");
    }
    throw_errno("read_frame");
  }
  return true;
}

void close_socket(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace hoh::net

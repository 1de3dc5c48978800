#include "net/socket_transport.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.h"
#include "net/socket_util.h"

namespace hoh::net {

namespace {

/// recv() chunk; large frames arrive in several.
constexpr std::size_t kRecvChunk = 64 * 1024;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// True when a failed send()/recv() only means "not now".
bool transient(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)), reconnect_rng_(config_.reconnect_seed) {
  config_.reconnect.validate();
  listen_fd_ = tcp_listen(config_.host, config_.port, &port_);
  set_nonblocking(listen_fd_);
  common::MutexLock lock(mu_);
  try {
    connect_with_backoff();
  } catch (...) {
    close_socket(listen_fd_);
    throw;
  }
}

SocketTransport::~SocketTransport() {
  common::MutexLock lock(mu_);
  drop_connection();
  close_socket(listen_fd_);
}

// --- connection ------------------------------------------------------

void SocketTransport::connect_with_backoff() {
  const common::RetryPolicy& policy = config_.reconnect;
  for (int attempt = 1;; ++attempt) {
    if (dial()) return;
    if (!policy.allows(attempt + 1)) {
      throw common::ResourceError(
          "SocketTransport: could not establish loopback connection to " +
          config_.host + ":" + std::to_string(port_) + " after " +
          std::to_string(attempt) + " attempts");
    }
    const double backoff = policy.backoff_for(attempt, reconnect_rng_);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

bool SocketTransport::dial() {
  try {
    peers_[0] = tcp_connect(config_.host, port_);
  } catch (const common::ResourceError&) {
    return false;
  }
  // On loopback the handshake completes into the listener's backlog, so
  // our connection is there to accept at once. Anything else in the
  // backlog is a stray dialer and is turned away.
  sockaddr_in ours{};
  socklen_t len = sizeof(ours);
  ::getsockname(peers_[0], reinterpret_cast<sockaddr*>(&ours), &len);
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      pollfd listener{listen_fd_, POLLIN, 0};
      if (transient(errno) && ::poll(&listener, 1, /*timeout_ms=*/1000) > 0) {
        continue;
      }
      break;  // nothing arrived: this attempt failed
    }
    sockaddr_in theirs{};
    len = sizeof(theirs);
    ::getpeername(fd, reinterpret_cast<sockaddr*>(&theirs), &len);
    if (theirs.sin_port != ours.sin_port ||
        theirs.sin_addr.s_addr != ours.sin_addr.s_addr) {
      ::close(fd);
      continue;
    }
    peers_[1] = fd;
    for (const int peer : peers_) {
      set_nodelay(peer);
      set_nonblocking(peer);
    }
    return true;
  }
  drop_connection();
  return false;
}

void SocketTransport::drop_connection() {
  close_socket(peers_[0]);
  close_socket(peers_[1]);
  rx_.clear();
}

void SocketTransport::kill_connection() {
  common::MutexLock lock(mu_);
  if (peers_[0] >= 0) ::shutdown(peers_[0], SHUT_RDWR);
}

// --- registry --------------------------------------------------------

void SocketTransport::register_endpoint(const std::string& endpoint,
                                        Handler handler) {
  common::MutexLock lock(mu_);
  endpoints_[endpoint] = std::move(handler);
}

void SocketTransport::unregister_endpoint(const std::string& endpoint) {
  common::MutexLock lock(mu_);
  endpoints_.erase(endpoint);
}

bool SocketTransport::has_endpoint(const std::string& endpoint) const {
  common::MutexLock lock(mu_);
  return endpoints_.count(endpoint) != 0;
}

Envelope SocketTransport::dispatch(const std::string& endpoint,
                                   const Envelope& request) {
  Handler handler;
  {
    common::MutexLock lock(mu_);
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end()) {
      throw common::NotFoundError("transport: no endpoint \"" + endpoint +
                                  "\"");
    }
    handler = it->second;
  }
  return handler(request);
}

TransportStats SocketTransport::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

// --- wire ------------------------------------------------------------

SocketTransport::WireMessage SocketTransport::decode_wire(
    const Envelope& frame) {
  Unpacker u(frame.payload);
  WireMessage msg;
  msg.envelope.type = frame.type;
  unpack_fields(u, msg);
  return msg;
}

SocketTransport::WireMessage SocketTransport::wire_transfer(int peer_slot,
                                                            WireMessage msg) {
  common::MutexLock lock(mu_);
  msg.seq = next_seq_++;
  if (msg.kind == kRequest) ++stats_.calls;
  if (msg.kind == kOneWay) ++stats_.sends;
  // Header and wire body packed into one buffer of the frame's size.
  const std::vector<std::uint8_t> frame =
      encode_frame(msg.envelope.type, msg);
  try {
    for (;;) {
      if (peers_[0] < 0) {
        ++stats_.reconnects;
        connect_with_backoff();
      }
      WireMessage got;
      bool delivered = false;
      try {
        delivered = attempt_crossing(peer_slot, frame, msg.seq, &got);
      } catch (const CodecError&) {
        // corrupt stream: repair the connection like any other tear
      }
      if (delivered) return got;
      drop_connection();  // the next pass redials and retransmits
    }
  } catch (...) {
    // Leave no half-crossed frame on the wire for the next caller.
    drop_connection();
    throw;
  }
}

bool SocketTransport::attempt_crossing(int peer_slot,
                                       const std::vector<std::uint8_t>& frame,
                                       std::uint64_t seq, WireMessage* out) {
  const int tx = peers_[peer_slot];
  const int rx = peers_[1 - peer_slot];
  std::size_t sent = 0;
  std::uint8_t buf[kRecvChunk];
  Envelope env;
  for (;;) {
    // Send and receive in turn, so a frame larger than the kernel's
    // socket buffers drains on the far side while it is still going out.
    bool progress = false;
    if (sent < frame.size()) {
      const ssize_t n = ::send(tx, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && !transient(errno)) return false;
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        stats_.bytes_sent += static_cast<std::uint64_t>(n);
        progress = true;
      }
    }
    const ssize_t n = ::recv(rx, buf, sizeof(buf), 0);
    if (n == 0) return false;  // orderly close
    if (n < 0 && !transient(errno)) return false;
    if (n > 0) {
      rx_.append(buf, static_cast<std::size_t>(n));
      stats_.bytes_received += static_cast<std::uint64_t>(n);
      progress = true;
      while (pop_frame(rx_, &env)) {
        WireMessage got = decode_wire(env);
        if (got.seq == seq) {
          *out = std::move(got);
          return true;
        }
      }
    }
    if (progress) continue;
    pollfd fds[2] = {
        {rx, POLLIN, 0},
        {tx, static_cast<short>(sent < frame.size() ? POLLOUT : 0), 0},
    };
    if (::poll(fds, 2, /*timeout_ms=*/-1) < 0 && errno != EINTR) return false;
    // A hung-up or failed socket with nothing left to read is dead.
    if (!(fds[0].revents & POLLIN) &&
        ((fds[0].revents | fds[1].revents) & (POLLERR | POLLHUP | POLLNVAL))) {
      return false;
    }
  }
}

Envelope SocketTransport::call(const std::string& endpoint,
                               const Envelope& request) {
  // Request crosses the wire client -> server...
  const WireMessage delivered =
      wire_transfer(0, WireMessage{0, kRequest, endpoint, request});
  // ...the handler runs here, on the caller's thread...
  Envelope reply = dispatch(delivered.endpoint, delivered.envelope);
  // ...and the reply crosses back server -> client.
  return wire_transfer(1, WireMessage{0, kReply, endpoint, std::move(reply)})
      .envelope;
}

void SocketTransport::send(const std::string& endpoint,
                           const Envelope& message) {
  const WireMessage delivered =
      wire_transfer(0, WireMessage{0, kOneWay, endpoint, message});
  dispatch(delivered.endpoint, delivered.envelope);
}

}  // namespace hoh::net

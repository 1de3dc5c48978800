#include "net/socket_transport.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace hoh::net {

namespace {

/// epoll_event user tags.
constexpr std::uint32_t kTagListen = 0;
constexpr std::uint32_t kTagWake = 1;
constexpr std::uint32_t kTagPeer0 = 2;
constexpr std::uint32_t kTagPeer1 = 3;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)), reconnect_rng_(config_.reconnect_seed) {
  config_.reconnect.validate();
  open_listener();
  start_reactor();
  connect_with_backoff();
}

SocketTransport::~SocketTransport() {
  {
    common::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  wake_reactor();
  if (reactor_.joinable()) reactor_.join();
  {
    common::MutexLock lock(mu_);
    close_quietly(peers_[0].fd);
    close_quietly(peers_[1].fd);
    close_quietly(pending_client_fd_);
  }
  close_quietly(listen_fd_);
  close_quietly(epoll_fd_);
  close_quietly(wake_fd_);
}

void SocketTransport::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw common::ResourceError("SocketTransport: socket() failed: " +
                                std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw common::ConfigError("SocketTransport: bad host " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw common::ResourceError("SocketTransport: bind(" + config_.host + ":" +
                                std::to_string(config_.port) +
                                ") failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 8) != 0) {
    throw common::ResourceError(std::string("SocketTransport: listen failed: ") +
                                std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);
}

void SocketTransport::start_reactor() {
  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    throw common::ResourceError("SocketTransport: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kTagListen;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u32 = kTagWake;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  reactor_ = std::thread([this] { reactor_main(); });
}

void SocketTransport::wake_reactor() {
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the reactor; ignore the result.
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void SocketTransport::connect_with_backoff() {
  const common::RetryPolicy& policy = config_.reconnect;
  for (int attempt = 1;; ++attempt) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port_);
      ::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        {
          common::MutexLock lock(mu_);
          conn_error_ = false;  // only this (engine) thread reads it
          pending_client_fd_ = fd;
        }
        wake_reactor();
        // Wait until the reactor adopted the dialed side and accepted
        // the server side (or the fresh connection died instantly).
        common::MutexLock lock(mu_);
        while (!connected_ && !conn_error_ && !stopping_) {
          cv_.wait(mu_);
        }
        if (stopping_) {
          throw common::StateError("SocketTransport: shutting down");
        }
        if (connected_) return;
        // conn_error_: the connection died during the handshake; retry.
      } else {
        ::close(fd);
      }
    }
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

std::vector<std::uint8_t> SocketTransport::encode_wire(const WireMessage& msg) {
  Packer body;
  pack_fields(body, msg);
  return encode_frame(Envelope{msg.envelope.type, body.take()});
}

SocketTransport::WireMessage SocketTransport::decode_wire(
    const Envelope& frame) {
  Unpacker u(frame.payload);
  WireMessage msg;
  msg.envelope.type = frame.type;
  unpack_fields(u, msg);
  return msg;
}

SocketTransport::WireMessage SocketTransport::wire_transfer(
    int peer_slot, const WireMessage& msg) {
  const std::vector<std::uint8_t> bytes = encode_wire(msg);
  for (;;) {
    bool need_reconnect = false;
    {
      common::MutexLock lock(mu_);
      if (stopping_) {
        throw common::StateError("SocketTransport: shutting down");
      }
      if (!connected_ || conn_error_) {
        need_reconnect = true;
      } else {
        peers_[peer_slot].out.push_back(bytes);
        stats_.bytes_sent += bytes.size();
      }
    }
    if (need_reconnect) {
      {
        common::MutexLock lock(mu_);
        ++stats_.reconnects;
      }
      connect_with_backoff();
      continue;  // retransmit on the fresh connection
    }
    wake_reactor();
    common::MutexLock lock(mu_);
    for (;;) {
      while (inbound_.empty() && !conn_error_ && !stopping_) {
        cv_.wait(mu_);
      }
      if (stopping_) {
        throw common::StateError("SocketTransport: shutting down");
      }
      if (conn_error_) break;  // outer loop: reconnect + retransmit
      Envelope frame = std::move(inbound_.front());
      inbound_.pop_front();
      WireMessage got = decode_wire(frame);
      // A frame from before a reconnect could in principle slip
      // through; drop it and keep waiting for ours.
      if (got.seq != msg.seq) continue;
      return got;
    }
  }
}

Envelope SocketTransport::call(const std::string& endpoint,
                               const Envelope& request) {
  WireMessage req;
  {
    common::MutexLock lock(mu_);
    req.seq = next_seq_++;
    ++stats_.calls;
  }
  req.kind = kRequest;
  req.endpoint = endpoint;
  req.envelope = request;
  // Request crosses the wire client -> server...
  const WireMessage delivered = wire_transfer(0, req);
  // ...the handler runs here, on the caller's thread...
  Envelope reply = dispatch(delivered.endpoint, delivered.envelope);
  // ...and the reply crosses back server -> client.
  WireMessage rep;
  {
    common::MutexLock lock(mu_);
    rep.seq = next_seq_++;
  }
  rep.kind = kReply;
  rep.endpoint = endpoint;
  rep.envelope = std::move(reply);
  return wire_transfer(1, rep).envelope;
}

void SocketTransport::send(const std::string& endpoint,
                           const Envelope& message) {
  WireMessage msg;
  {
    common::MutexLock lock(mu_);
    msg.seq = next_seq_++;
    ++stats_.sends;
  }
  msg.kind = kOneWay;
  msg.endpoint = endpoint;
  msg.envelope = message;
  const WireMessage delivered = wire_transfer(0, msg);
  dispatch(delivered.endpoint, delivered.envelope);
}

void SocketTransport::kill_connection() {
  common::MutexLock lock(mu_);
  if (peers_[0].fd >= 0) ::shutdown(peers_[0].fd, SHUT_RDWR);
}

// --- reactor ---------------------------------------------------------

void SocketTransport::reactor_main() {
  epoll_event events[16];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 16, /*timeout_ms=*/200);
    {
      common::MutexLock lock(mu_);
      if (stopping_) return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      const std::uint32_t tag = events[i].data.u32;
      const std::uint32_t ev = events[i].events;
      if (tag == kTagWake) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const auto r =
            ::read(wake_fd_, &drained, sizeof(drained));
      } else if (tag == kTagListen) {
        reactor_accept();
      } else {
        const int slot = (tag == kTagPeer0) ? 0 : 1;
        bool alive = true;
        if (ev & (EPOLLHUP | EPOLLERR)) alive = false;
        if (alive && (ev & EPOLLIN)) alive = reactor_read(slot);
        if (alive && (ev & EPOLLOUT)) alive = reactor_write(slot);
        if (!alive) {
          reactor_drop_connection();
          continue;
        }
      }
    }
    // The wake path also covers "new bytes queued": drain every peer
    // with pending output.
    bool dead = false;
    {
      common::MutexLock lock(mu_);
      // Adopt a freshly dialed client side.
      if (pending_client_fd_ >= 0 && peers_[0].fd < 0) {
        peers_[0].fd = pending_client_fd_;
        pending_client_fd_ = -1;
        set_nonblocking(peers_[0].fd);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = kTagPeer0;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, peers_[0].fd, &ev);
      }
      if (peers_[0].fd >= 0 && peers_[1].fd >= 0 && !connected_) {
        connected_ = true;
        cv_.notify_all();
      }
    }
    for (int slot = 0; slot < 2 && !dead; ++slot) {
      bool has_out;
      {
        common::MutexLock lock(mu_);
        has_out = peers_[slot].fd >= 0 && !peers_[slot].out.empty();
      }
      if (has_out) dead = !reactor_write(slot);
    }
    if (dead) reactor_drop_connection();
  }
}

void SocketTransport::reactor_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or error: nothing (more) to accept
    common::MutexLock lock(mu_);
    if (peers_[1].fd >= 0) {
      // Only one loopback connection is served; late strays are closed.
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    set_nonblocking(fd);
    peers_[1].fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = kTagPeer1;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    if (peers_[0].fd >= 0 && !connected_) {
      connected_ = true;
    }
    cv_.notify_all();
  }
}

bool SocketTransport::reactor_read(int slot) {
  int fd;
  {
    common::MutexLock lock(mu_);
    fd = peers_[slot].fd;
  }
  if (fd < 0) return true;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return false;  // orderly close
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    common::MutexLock lock(mu_);
    Peer& peer = peers_[slot];
    peer.in.append(buf, static_cast<std::size_t>(n));
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    // Reassemble complete frames off the ring.
    try {
      Envelope env;
      while (pop_frame(peer.in, &env)) {
        inbound_.push_back(std::move(env));
        cv_.notify_all();
      }
    } catch (const CodecError&) {
      return false;  // corrupt stream: drop the connection
    }
  }
  return true;
}

bool SocketTransport::reactor_write(int slot) {
  for (;;) {
    int fd;
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    {
      common::MutexLock lock(mu_);
      Peer& peer = peers_[slot];
      fd = peer.fd;
      if (fd < 0) return true;
      if (peer.out.empty()) {
        arm_writer(slot, false);
        return true;
      }
      data = peer.out.front().data() + peer.out_offset;
      len = peer.out.front().size() - peer.out_offset;
    }
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        common::MutexLock lock(mu_);
        arm_writer(slot, true);
        return true;
      }
      if (errno == EINTR) continue;
      return false;
    }
    common::MutexLock lock(mu_);
    Peer& peer = peers_[slot];
    peer.out_offset += static_cast<std::size_t>(n);
    if (!peer.out.empty() && peer.out_offset >= peer.out.front().size()) {
      peer.out.pop_front();
      peer.out_offset = 0;
    }
  }
}

void SocketTransport::arm_writer(int slot, bool on) {
  Peer& peer = peers_[slot];
  if (peer.fd < 0 || peer.want_write == on) return;
  peer.want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.u32 = (slot == 0) ? kTagPeer0 : kTagPeer1;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, peer.fd, &ev);
}

void SocketTransport::reactor_drop_connection() {
  common::MutexLock lock(mu_);
  for (Peer& peer : peers_) {
    if (peer.fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, peer.fd, nullptr);
      ::close(peer.fd);
      peer.fd = -1;
    }
    peer.in.clear();
    peer.out.clear();
    peer.out_offset = 0;
    peer.want_write = false;
  }
  inbound_.clear();
  connected_ = false;
  conn_error_ = true;
  cv_.notify_all();
}

}  // namespace hoh::net

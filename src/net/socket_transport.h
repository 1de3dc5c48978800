#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "common/thread_annotations.h"
#include "net/ring_buffer.h"
#include "net/transport.h"

/// \file socket_transport.h
/// The socket-backed Transport (DESIGN.md §14): every envelope is packed
/// into a versioned frame and round-trips a real loopback TCP connection
/// before its handler runs. An epoll reactor thread owns the file
/// descriptors — non-blocking accept/read/write, ring-buffered frame
/// reassembly per peer, per-peer write queues drained on EPOLLOUT — and
/// hands complete inbound frames back to the calling thread, which
/// blocks on a condition variable until its frame arrives.
///
/// call() therefore traverses the wire twice (request over, reply back)
/// and send() once, while the handler itself still executes on the
/// caller's thread — the same synchronous-at-call-site contract as
/// InProcessTransport, which is what makes the two modes produce
/// byte-identical simulation digests while this one genuinely exercises
/// framing, partial reads, backpressure and reconnect.
///
/// A torn connection (peer reset, kill_connection() in tests) is
/// repaired transparently: the in-flight frame is retransmitted on a
/// fresh connection dialed under the PR 4 RetryPolicy (wall-clock
/// exponential backoff, seeded jitter), and stats().reconnects counts
/// the repairs.

namespace hoh::net {

struct SocketTransportConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port

  /// Redial budget for torn connections. Wall-clock, not simulated:
  /// the reactor lives outside the simulation engine.
  common::RetryPolicy reconnect{
      .max_attempts = 8,
      .base_backoff = 0.01,
      .multiplier = 2.0,
      .max_backoff = 0.5,
      .jitter = 0.1,
      .attempt_timeout = 0.0,
  };

  /// Seed for the reconnect backoff jitter.
  std::uint64_t reconnect_seed = 1;
};

class SocketTransport : public Transport {
 public:
  explicit SocketTransport(SocketTransportConfig config = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  void register_endpoint(const std::string& endpoint, Handler handler) override;
  void unregister_endpoint(const std::string& endpoint) override;
  bool has_endpoint(const std::string& endpoint) const override;
  Envelope call(const std::string& endpoint, const Envelope& request) override;
  void send(const std::string& endpoint, const Envelope& message) override;
  const char* mode() const override { return "socket"; }
  TransportStats stats() const override;

  /// The port the listener actually bound (resolves port = 0).
  std::uint16_t port() const { return port_; }

  /// Test hook: tears the live connection down mid-run so the next
  /// exchange exercises the reconnect/backoff path.
  void kill_connection();

 private:
  /// Internal wire body wrapped around every envelope: see
  /// WireMessage::fields().
  enum WireKind : std::uint8_t { kRequest = 0, kOneWay = 1, kReply = 2 };

  /// One TCP peer the reactor services. Exactly two exist when the
  /// loopback connection is up: the dialed (client) side and the
  /// accepted (server) side.
  struct Peer {
    int fd = -1;
    RingBuffer in;
    std::deque<std::vector<std::uint8_t>> out;
    std::size_t out_offset = 0;  // bytes of out.front() already written
    bool want_write = false;     // EPOLLOUT currently armed
  };

  void open_listener();
  void start_reactor();
  /// Dials a fresh loopback connection (RetryPolicy backoff) and waits
  /// until the reactor accepted it. Throws ResourceError when the budget
  /// is exhausted.
  void connect_with_backoff();

  /// Sends one framed wire message via \p peer_slot (0 = client side,
  /// 1 = server side) and blocks until the reactor delivers the next
  /// complete inbound frame; transparently reconnects and retransmits.
  /// Returns the decoded wire body (seq, kind, endpoint, envelope).
  struct WireMessage {
    std::uint64_t seq = 0;
    std::uint8_t kind = kRequest;
    std::string endpoint;
    Envelope envelope;  // the type travels in the frame header

    static auto fields(auto& m) {
      return std::tie(m.seq, m.kind, m.endpoint, m.envelope.payload);
    }
  };
  WireMessage wire_transfer(int peer_slot, const WireMessage& msg);

  static std::vector<std::uint8_t> encode_wire(const WireMessage& msg);
  static WireMessage decode_wire(const Envelope& frame);

  /// Dispatches a decoded request to its registered handler.
  Envelope dispatch(const std::string& endpoint, const Envelope& request);

  // --- reactor side ---
  void reactor_main();
  void reactor_accept();
  bool reactor_read(int slot);   // false = connection died
  bool reactor_write(int slot);  // false = connection died
  void reactor_drop_connection();
  void arm_writer(int slot, bool on) HOH_REQUIRES(mu_);
  void wake_reactor();

  SocketTransportConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  mutable common::Mutex mu_;
  common::CondVar cv_;
  std::map<std::string, Handler> endpoints_ HOH_GUARDED_BY(mu_);
  mutable TransportStats stats_ HOH_GUARDED_BY(mu_);
  /// peers_[0] = dialed side, peers_[1] = accepted side.
  Peer peers_[2] HOH_GUARDED_BY(mu_);
  std::deque<Envelope> inbound_ HOH_GUARDED_BY(mu_);
  bool connected_ HOH_GUARDED_BY(mu_) = false;
  bool conn_error_ HOH_GUARDED_BY(mu_) = false;
  bool stopping_ HOH_GUARDED_BY(mu_) = false;
  int pending_client_fd_ HOH_GUARDED_BY(mu_) = -1;
  std::uint64_t next_seq_ HOH_GUARDED_BY(mu_) = 1;

  common::Rng reconnect_rng_;
  std::thread reactor_;
};

}  // namespace hoh::net

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/thread_annotations.h"
#include "net/ring_buffer.h"
#include "net/transport.h"

/// \file socket_transport.h
/// The socket-backed Transport (DESIGN.md §14): every envelope is packed
/// into a versioned frame and round-trips a real loopback TCP connection
/// before its handler runs. The calling thread drives the I/O itself:
/// under the wire mutex it sends the frame on one end of the connection
/// and reads the other end (non-blocking, interleaved, poll() only when
/// neither side can move) until pop_frame() reassembles that frame.
/// The Transport contract is synchronous, so at most one frame is ever
/// in flight and no I/O thread is needed.
///
/// call() therefore traverses the wire twice (request over, reply back)
/// and send() once, while the handler itself still executes on the
/// caller's thread, outside the wire mutex — the same
/// synchronous-at-call-site contract as InProcessTransport, which is
/// what makes the two modes produce byte-identical simulation digests
/// while this one genuinely exercises framing, partial reads and
/// writes, and reconnect.
///
/// A torn connection (peer reset, corrupt stream, kill_connection() in
/// tests) is repaired transparently: the in-flight frame is
/// retransmitted on a fresh connection dialed under a
/// common::RetryPolicy (wall-clock exponential backoff, seeded jitter),
/// and stats().reconnects counts the repairs.

namespace hoh::net {

struct SocketTransportConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port

  /// Redial budget for torn connections. Wall-clock, not simulated:
  /// the wire lives outside the simulation engine.
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

  struct WireMessage {
    std::uint64_t seq = 0;
    std::uint8_t kind = kRequest;
    std::string endpoint;
    Envelope envelope;  // the type travels in the frame header

    static auto fields(auto& m) {
      return std::tie(m.seq, m.kind, m.endpoint, m.envelope.payload);
    }
  };

  /// Carries \p msg across the wire from \p peer_slot (0 = dialed side,
  /// 1 = accepted side) to the other end and returns it as decoded
  /// there. Assigns the seq; the whole crossing, reconnects and
  /// retransmits included, is atomic under mu_.
  WireMessage wire_transfer(int peer_slot, WireMessage msg) HOH_EXCLUDES(mu_);

  /// One attempt at a crossing on the live connection: true with *out
  /// filled once the frame carrying \p seq arrived, false when the
  /// connection died. Throws CodecError on a corrupt stream.
  bool attempt_crossing(int peer_slot,
                        const std::vector<std::uint8_t>& frame,
                        std::uint64_t seq, WireMessage* out)
      HOH_REQUIRES(mu_);

  /// Dials a fresh loopback connection and accepts its server side
  /// under the RetryPolicy backoff. Throws ResourceError when the
  /// budget is exhausted.
  void connect_with_backoff() HOH_REQUIRES(mu_);
  bool dial() HOH_REQUIRES(mu_);
  void drop_connection() HOH_REQUIRES(mu_);

  static WireMessage decode_wire(const Envelope& frame);

  /// Dispatches a decoded request to its registered handler.
  Envelope dispatch(const std::string& endpoint, const Envelope& request)
      HOH_EXCLUDES(mu_);

  SocketTransportConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  /// The wire mutex: one crossing at a time, and the registry.
  mutable common::Mutex mu_;
  std::map<std::string, Handler> endpoints_ HOH_GUARDED_BY(mu_);
  TransportStats stats_ HOH_GUARDED_BY(mu_);
  std::uint64_t next_seq_ HOH_GUARDED_BY(mu_) = 1;
  /// peers_[0] = dialed side, peers_[1] = accepted side; -1 while torn.
  int peers_[2] HOH_GUARDED_BY(mu_) = {-1, -1};
  /// Bytes read off the receiving peer, reassembled by pop_frame().
  RingBuffer rx_ HOH_GUARDED_BY(mu_);
  common::Rng reconnect_rng_ HOH_GUARDED_BY(mu_);
};

}  // namespace hoh::net

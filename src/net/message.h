#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/pack.h"
#include "net/ring_buffer.h"

/// \file message.h
/// The typed wire vocabulary of the control plane (DESIGN.md §14). Every
/// cross-component interaction — RM↔NM container traffic, store watch
/// fan-out and ingest, PilotManager↔Agent commands, gateway↔UnitManager
/// submission, and the hohnode multi-process roles — is one of these
/// structs. Each lists its fields once, in wire order, as
/// `static auto fields(auto& m)`; make_envelope packs that list with the
/// net::Packer codec and open_envelope unpacks it, behind a versioned
/// frame header:
///
///   FrameHeader  := magic u32 ("HOH1") | version u16 | type u16
///                 | length u32 (payload bytes)
///   frame        := FrameHeader | payload[length]
///
/// A frame with the wrong magic or version, or a length above
/// kMaxFrameBytes, is rejected before any payload byte is read, so a
/// corrupt or hostile stream can never drive an allocation from its
/// length field. Payload evolution bumps kWireVersion; peers reject
/// versions they do not speak (no silent reinterpretation).

namespace hoh::net {

inline constexpr std::uint32_t kFrameMagic = 0x484F4831;  // "HOH1"
inline constexpr std::uint16_t kWireVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Upper bound on one payload; a length field above this is corruption,
/// not a big message. The largest real payloads are the list messages
/// (StoreIngest, WatchNotify), which kBatchBytes keeps far below it.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;
/// Byte bound on the list of one StoreIngest or WatchNotify: a sender
/// starts a new message rather than let the list bytes of the one it is
/// filling reach this (one element larger than the bound travels
/// alone). A large batch is thus never held in memory whole, and never
/// approaches kMaxFrameBytes.
inline constexpr std::size_t kBatchBytes = 16u << 10;

enum class MsgType : std::uint16_t {
  kAck = 1,
  // RM <-> NM container plane.
  kAllocateRequest = 10,
  kAllocateReply = 11,
  kLaunchRequest = 12,
  kContainerRunning = 13,
  kReleaseRequest = 14,
  kNodeProbe = 15,
  kNodeStatus = 16,
  // State-store plane (watch fan-out + unit ingest).
  kWatchNotify = 30,
  kStoreIngest = 31,
  // PilotManager <-> Agent control.
  kAgentCommand = 40,
  kAgentEvent = 41,
  // Gateway -> UnitManager submission.
  kSubmitRequest = 50,
  kSubmitReply = 51,
  // hohnode multi-process roles.
  kHello = 60,
  kUnitAssign = 61,
  kUnitResult = 62,
  kBye = 63,
};

const char* to_string(MsgType type);

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t type = 0;
  std::uint32_t length = 0;

  void pack(Packer& p) const {
    p.u32(magic);
    p.u16(version);
    p.u16(type);
    p.u32(length);
  }

  /// Validates magic/version/length; throws CodecError on any mismatch.
  static FrameHeader unpack(Unpacker& u);
};

/// A type-tagged packed payload — what transports move. The payload is
/// already codec bytes, so routing never needs to understand it.
struct Envelope {
  MsgType type = MsgType::kAck;
  std::vector<std::uint8_t> payload;
};

/// --- message structs -----------------------------------------------
/// fields() is the whole wire layout of a message: the field types pick
/// the encodings (Packer::put / Unpacker::get), the list order is the
/// byte order, and adding a field is one edit to the list.

struct Ack {
  static constexpr MsgType kType = MsgType::kAck;
  static auto fields(auto&) { return std::tie(); }
};

/// RM -> NM: reserve resources and create the container record.
struct AllocateRequest {
  static constexpr MsgType kType = MsgType::kAllocateRequest;
  std::string container_id;
  std::string app_id;
  std::string node;
  std::int64_t memory_mb = 0;
  std::int64_t vcores = 0;
  bool is_am = false;

  static auto fields(auto& m) {
    return std::tie(m.container_id, m.app_id, m.node, m.memory_mb, m.vcores,
                    m.is_am);
  }
};

struct AllocateReply {
  static constexpr MsgType kType = MsgType::kAllocateReply;
  bool ok = false;
  std::string node;

  static auto fields(auto& m) { return std::tie(m.ok, m.node); }
};

/// RM -> NM: start an allocated container. The NM answers with an Ack
/// immediately; once the launch latency elapses it sends
/// ContainerRunning back to the RM's event endpoint with the same
/// correlation id (callbacks do not cross the wire).
struct LaunchRequest {
  static constexpr MsgType kType = MsgType::kLaunchRequest;
  std::string node;
  std::string container_id;
  std::uint64_t correlation = 0;

  static auto fields(auto& m) {
    return std::tie(m.node, m.container_id, m.correlation);
  }
};

struct ContainerRunning {
  static constexpr MsgType kType = MsgType::kContainerRunning;
  std::string container_id;
  std::uint64_t correlation = 0;

  static auto fields(auto& m) {
    return std::tie(m.container_id, m.correlation);
  }
};

/// RM -> NM: finish a container (final_state is a yarn::ContainerState).
struct ReleaseRequest {
  static constexpr MsgType kType = MsgType::kReleaseRequest;
  std::string node;
  std::string container_id;
  std::uint8_t final_state = 0;

  static auto fields(auto& m) {
    return std::tie(m.node, m.container_id, m.final_state);
  }
};

/// RM liveness monitor -> NM: heartbeat probe.
struct NodeProbe {
  static constexpr MsgType kType = MsgType::kNodeProbe;
  std::string node;

  static auto fields(auto& m) { return std::tie(m.node); }
};

struct NodeStatus {
  static constexpr MsgType kType = MsgType::kNodeStatus;
  std::string node;
  double last_heartbeat = 0.0;
  bool alive = false;

  static auto fields(auto& m) {
    return std::tie(m.node, m.last_heartbeat, m.alive);
  }
};

/// Store -> watcher: a run of watch deliveries to one watcher that
/// share an event type (a pilot::WatchEventType) and a bucket, one per
/// key, in delivery order. The receiver delivers the keys one at a
/// time. The first three fields are the run's routing prefix: readers
/// may decode just those.
struct WatchNotify {
  static constexpr MsgType kType = MsgType::kWatchNotify;
  std::uint64_t watcher_id = 0;
  std::uint8_t event_type = 0;
  std::string bucket;
  std::vector<std::string> keys;

  static auto fields(auto& m) {
    return std::tie(m.watcher_id, m.event_type, m.bucket, m.keys);
  }
};

/// UnitManager -> store: the U.2 handoff of a batch of units. Each unit
/// is a document put plus an agent queue push, applied in list order.
/// The document is a packed pilot::UnitRecord (pilot/unit_record.h),
/// opaque bytes here; its numbers cross the wire bit-exactly.
struct StoreIngest {
  static constexpr MsgType kType = MsgType::kStoreIngest;
  struct Unit {
    std::string unit_id;
    std::string queue;  // empty = no queue push
    std::vector<std::uint8_t> document;

    static auto fields(auto& m) {
      return std::tie(m.unit_id, m.queue, m.document);
    }
  };
  std::string collection;
  std::vector<Unit> units;

  static auto fields(auto& m) { return std::tie(m.collection, m.units); }
};

/// PilotManager -> Agent lifecycle command.
struct AgentCommand {
  static constexpr MsgType kType = MsgType::kAgentCommand;
  enum Op : std::uint8_t { kStart = 0, kStop = 1, kStopFailUnits = 2 };
  std::string pilot_id;
  std::uint8_t op = kStart;

  static auto fields(auto& m) { return std::tie(m.pilot_id, m.op); }
};

/// Agent -> PilotManager event (today only "active").
struct AgentEvent {
  static constexpr MsgType kType = MsgType::kAgentEvent;
  enum Kind : std::uint8_t { kActive = 0 };
  std::string pilot_id;
  std::uint8_t kind = kActive;

  static auto fields(auto& m) { return std::tie(m.pilot_id, m.kind); }
};

/// Gateway -> UnitManager: submit one unit description, packed as in
/// the unit document (pilot/unit_record.h).
struct SubmitRequest {
  static constexpr MsgType kType = MsgType::kSubmitRequest;
  std::string tenant_id;
  std::vector<std::uint8_t> description;

  static auto fields(auto& m) { return std::tie(m.tenant_id, m.description); }
};

struct SubmitReply {
  static constexpr MsgType kType = MsgType::kSubmitReply;
  std::string unit_id;

  static auto fields(auto& m) { return std::tie(m.unit_id); }
};

/// hohnode: role announcement on connect.
struct Hello {
  static constexpr MsgType kType = MsgType::kHello;
  enum Role : std::uint8_t { kAgent = 0, kSubmitter = 1 };
  std::uint8_t role = kAgent;
  std::string name;
  std::int64_t cores = 0;  // agent capacity; 0 for submitters

  static auto fields(auto& m) { return std::tie(m.role, m.name, m.cores); }
};

/// hohnode rm -> agent: run one unit.
struct UnitAssign {
  static constexpr MsgType kType = MsgType::kUnitAssign;
  std::string unit_id;
  std::string name;
  double duration = 0.0;

  static auto fields(auto& m) {
    return std::tie(m.unit_id, m.name, m.duration);
  }
};

/// hohnode agent -> rm: unit finished. (Submitters hand the rm new
/// units as UnitAssign, not as UnitResult.)
struct UnitResult {
  static constexpr MsgType kType = MsgType::kUnitResult;
  std::string unit_id;
  std::string name;
  bool ok = false;

  static auto fields(auto& m) { return std::tie(m.unit_id, m.name, m.ok); }
};

/// hohnode: orderly goodbye (submitter done; rm tells agents to exit).
struct Bye {
  static constexpr MsgType kType = MsgType::kBye;
  static auto fields(auto&) { return std::tie(); }
};

/// --- envelope / frame helpers --------------------------------------

template <typename M>
Envelope make_envelope(const M& m) {
  Packer p;
  pack_fields(p, m);
  return Envelope{M::kType, p.take()};
}

/// Unpacks a typed message out of an envelope; CodecError on a type
/// mismatch or malformed payload.
template <typename M>
M open_envelope(const Envelope& e) {
  if (e.type != M::kType) {
    throw CodecError(std::string("envelope type mismatch: expected ") +
                     to_string(M::kType) + ", got " + to_string(e.type));
  }
  Unpacker u(e.payload);
  M m;
  unpack_fields(u, m);
  return m;
}

/// header + payload as one contiguous byte string.
std::vector<std::uint8_t> encode_frame(const Envelope& e);

/// The one frame reader of every byte stream: moves the front frame of
/// \p in into \p out and returns true, or returns false and consumes
/// nothing while the frame is incomplete. The header is validated as
/// soon as it is buffered, so a frame that can never become valid (bad
/// magic/version/length) throws CodecError before its length field can
/// drive an allocation.
bool pop_frame(RingBuffer& in, Envelope* out);

}  // namespace hoh::net

#include "net/message.h"

namespace hoh::net {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kAck: return "Ack";
    case MsgType::kAllocateRequest: return "AllocateRequest";
    case MsgType::kAllocateReply: return "AllocateReply";
    case MsgType::kLaunchRequest: return "LaunchRequest";
    case MsgType::kContainerRunning: return "ContainerRunning";
    case MsgType::kReleaseRequest: return "ReleaseRequest";
    case MsgType::kNodeProbe: return "NodeProbe";
    case MsgType::kNodeStatus: return "NodeStatus";
    case MsgType::kWatchNotify: return "WatchNotify";
    case MsgType::kStoreIngest: return "StoreIngest";
    case MsgType::kAgentCommand: return "AgentCommand";
    case MsgType::kAgentEvent: return "AgentEvent";
    case MsgType::kSubmitRequest: return "SubmitRequest";
    case MsgType::kSubmitReply: return "SubmitReply";
    case MsgType::kHello: return "Hello";
    case MsgType::kUnitAssign: return "UnitAssign";
    case MsgType::kUnitResult: return "UnitResult";
    case MsgType::kBye: return "Bye";
  }
  return "unknown";
}

FrameHeader FrameHeader::unpack(Unpacker& u) {
  FrameHeader h;
  h.magic = u.u32();
  if (h.magic != kFrameMagic) {
    throw CodecError("frame: bad magic");
  }
  h.version = u.u16();
  if (h.version != kWireVersion) {
    throw CodecError("frame: unsupported wire version " +
                     std::to_string(h.version) + " (speaking " +
                     std::to_string(kWireVersion) + ")");
  }
  h.type = u.u16();
  h.length = u.u32();
  if (h.length > kMaxFrameBytes) {
    throw CodecError("frame: length " + std::to_string(h.length) +
                     " exceeds kMaxFrameBytes");
  }
  return h;
}

std::vector<std::uint8_t> encode_frame(const Envelope& e) {
  Packer p;
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(e.type);
  h.length = static_cast<std::uint32_t>(e.payload.size());
  h.pack(p);
  auto out = p.take();
  out.insert(out.end(), e.payload.begin(), e.payload.end());
  return out;
}

bool pop_frame(RingBuffer& in, Envelope* out) {
  std::uint8_t header[kFrameHeaderBytes];
  if (in.peek(header, sizeof(header)) < sizeof(header)) return false;
  Unpacker u(header, sizeof(header));
  const FrameHeader h = FrameHeader::unpack(u);
  if (in.size() < kFrameHeaderBytes + h.length) return false;
  in.consume(kFrameHeaderBytes);
  out->type = static_cast<MsgType>(h.type);
  out->payload.resize(h.length);
  in.peek(out->payload.data(), h.length);
  in.consume(h.length);
  return true;
}

}  // namespace hoh::net

// Codec property tests (DESIGN.md §14): every message type round-trips
// through pack -> frame -> pop_frame -> unpack unchanged and encodes to
// its recorded wire image, and a hostile stream — truncated at every
// byte, corrupted length, wrong magic/version, random garbage — makes
// pop_frame wait or throw CodecError, never UB, a silent partial read,
// or an allocation driven by a corrupt length. The unit document, a
// fields() record packed like a message, is pinned the same way and
// refuses the same hostile input.

#include <algorithm>
#include <bit>
#include <cfloat>
#include <climits>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/message.h"
#include "net/ring_buffer.h"
#include "net/transport.h"
#include "pilot/state_store.h"
#include "pilot/unit_record.h"
#include "sim/engine.h"

namespace hoh::net {
namespace {

/// A ring buffer holding the first \p n of \p bytes, as a reader would
/// have received them.
RingBuffer ring_of(const std::vector<std::uint8_t>& bytes, std::size_t n) {
  RingBuffer ring;
  ring.append(bytes.data(), n);
  return ring;
}

RingBuffer ring_of(const std::vector<std::uint8_t>& bytes) {
  return ring_of(bytes, bytes.size());
}

/// pack -> encode_frame -> pop_frame -> open_envelope.
template <typename M>
M wire_round_trip(const M& msg) {
  RingBuffer ring = ring_of(encode_frame(make_envelope(msg)));
  Envelope decoded;
  EXPECT_TRUE(pop_frame(ring, &decoded));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(decoded.type, M::kType);
  return open_envelope<M>(decoded);
}

TEST(NetCodecRoundTrip, AllocatePlane) {
  AllocateRequest areq;
  areq.container_id = "container_01_000042";
  areq.app_id = "application_7";
  areq.node = "c401-002";
  areq.memory_mb = 2048;
  areq.vcores = 4;
  areq.is_am = true;
  const auto areq2 = wire_round_trip(areq);
  EXPECT_EQ(areq2.container_id, areq.container_id);
  EXPECT_EQ(areq2.app_id, areq.app_id);
  EXPECT_EQ(areq2.node, areq.node);
  EXPECT_EQ(areq2.memory_mb, areq.memory_mb);
  EXPECT_EQ(areq2.vcores, areq.vcores);
  EXPECT_EQ(areq2.is_am, areq.is_am);

  const auto arep = wire_round_trip(AllocateReply{true, "c401-002"});
  EXPECT_TRUE(arep.ok);
  EXPECT_EQ(arep.node, "c401-002");

  const auto launch = wire_round_trip(
      LaunchRequest{"c401-002", "container_01_000042", 0xdeadbeefcafeull});
  EXPECT_EQ(launch.node, "c401-002");
  EXPECT_EQ(launch.container_id, "container_01_000042");
  EXPECT_EQ(launch.correlation, 0xdeadbeefcafeull);

  const auto running =
      wire_round_trip(ContainerRunning{"container_01_000042", 7});
  EXPECT_EQ(running.container_id, "container_01_000042");
  EXPECT_EQ(running.correlation, 7u);

  const auto release =
      wire_round_trip(ReleaseRequest{"c401-002", "container_01_000042", 3});
  EXPECT_EQ(release.node, "c401-002");
  EXPECT_EQ(release.final_state, 3);

  const auto probe = wire_round_trip(NodeProbe{"c401-002"});
  EXPECT_EQ(probe.node, "c401-002");

  const auto status =
      wire_round_trip(NodeStatus{"c401-002", 1234.5625, true});
  EXPECT_EQ(status.node, "c401-002");
  EXPECT_EQ(status.last_heartbeat, 1234.5625);
  EXPECT_TRUE(status.alive);
}

TEST(NetCodecRoundTrip, StorePlane) {
  const auto notify = wire_round_trip(
      WatchNotify{99, 2, "unit", {"unit-000017", "", "unit-000018"}});
  EXPECT_EQ(notify.watcher_id, 99u);
  EXPECT_EQ(notify.event_type, 2);
  EXPECT_EQ(notify.bucket, "unit");
  EXPECT_EQ(notify.keys,
            (std::vector<std::string>{"unit-000017", "", "unit-000018"}));

  StoreIngest ingest;
  ingest.collection = "unit";
  ingest.units = {{"unit-000017", "agent.pilot-1", {0x00, 0xff, 0x7f}},
                  {"unit-000018", "", {0x80, 0x01}}};
  const auto ingest2 = wire_round_trip(ingest);
  EXPECT_EQ(ingest2.collection, ingest.collection);
  ASSERT_EQ(ingest2.units.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(ingest2.units[i].unit_id, ingest.units[i].unit_id);
    EXPECT_EQ(ingest2.units[i].queue, ingest.units[i].queue);
    EXPECT_EQ(ingest2.units[i].document, ingest.units[i].document);
  }
}

TEST(NetCodecRoundTrip, ControlAndSubmitPlanes) {
  const auto ack = wire_round_trip(Ack{});
  (void)ack;

  const auto cmd = wire_round_trip(
      AgentCommand{"pilot-3", AgentCommand::kStopFailUnits});
  EXPECT_EQ(cmd.pilot_id, "pilot-3");
  EXPECT_EQ(cmd.op, AgentCommand::kStopFailUnits);

  const auto event =
      wire_round_trip(AgentEvent{"pilot-3", AgentEvent::kActive});
  EXPECT_EQ(event.pilot_id, "pilot-3");
  EXPECT_EQ(event.kind, AgentEvent::kActive);

  SubmitRequest sreq;
  sreq.tenant_id = "alice";
  sreq.description = {1, 2, 3, 4};
  const auto sreq2 = wire_round_trip(sreq);
  EXPECT_EQ(sreq2.tenant_id, "alice");
  EXPECT_EQ(sreq2.description, sreq.description);

  const auto srep = wire_round_trip(SubmitReply{"unit-000099"});
  EXPECT_EQ(srep.unit_id, "unit-000099");
}

TEST(NetCodecRoundTrip, HohnodePlane) {
  const auto hello =
      wire_round_trip(Hello{Hello::kAgent, "agent-0", 16});
  EXPECT_EQ(hello.role, Hello::kAgent);
  EXPECT_EQ(hello.name, "agent-0");
  EXPECT_EQ(hello.cores, 16);

  const auto assign =
      wire_round_trip(UnitAssign{"unit-000001", "wave0-map-1", 12.25});
  EXPECT_EQ(assign.unit_id, "unit-000001");
  EXPECT_EQ(assign.name, "wave0-map-1");
  EXPECT_EQ(assign.duration, 12.25);

  const auto result =
      wire_round_trip(UnitResult{"unit-000001", "wave0-map-1", true});
  EXPECT_EQ(result.unit_id, "unit-000001");
  EXPECT_TRUE(result.ok);

  const auto bye = wire_round_trip(Bye{});
  (void)bye;
}

TEST(NetCodecRoundTrip, EmptyAndAwkwardStrings) {
  // Empty strings, embedded NULs and non-ASCII bytes all survive.
  AllocateRequest req;
  req.container_id = std::string("\0with\0nul", 9);
  req.app_id = "";
  req.node = "nøde-\xff\x01";
  const auto rt = wire_round_trip(req);
  EXPECT_EQ(rt.container_id, req.container_id);
  EXPECT_EQ(rt.app_id, "");
  EXPECT_EQ(rt.node, req.node);
}

// --- golden wire images ---------------------------------------------
// Round trips cannot see a field reordered on both sides; these byte
// images, recorded before the codec moved to per-struct field lists,
// pin the layout of every message type and of the frame header.

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Encodes \p msg, compares it with \p hex, then decodes the recorded
/// image and checks that it re-encodes to the same bytes.
template <typename M>
void expect_golden(const M& msg, const std::string& hex) {
  const Envelope env = make_envelope(msg);
  EXPECT_EQ(env.type, M::kType) << to_string(M::kType);
  EXPECT_EQ(env.payload, from_hex(hex)) << to_string(M::kType);
  const Envelope recorded{M::kType, from_hex(hex)};
  EXPECT_EQ(make_envelope(open_envelope<M>(recorded)).payload,
            recorded.payload)
      << to_string(M::kType);
}

TEST(NetCodecGolden, EveryMessageEncodesAsRecorded) {
  expect_golden(Ack{}, "");
  expect_golden(AllocateRequest{"c1", "app_1", "node-7", 4096, -3, true},
                "000000026331000000056170705f31000000066e6f64652d37"
                "0000000000001000fffffffffffffffd01");
  expect_golden(AllocateReply{true, "node-7"}, "01000000066e6f64652d37");
  expect_golden(LaunchRequest{"node-7", "c1", 0x0102030405060708ull},
                "000000066e6f64652d370000000263310102030405060708");
  expect_golden(ContainerRunning{"c1", 42}, "000000026331000000000000002a");
  expect_golden(ReleaseRequest{"node-7", "c1", 3},
                "000000066e6f64652d3700000002633103");
  expect_golden(NodeProbe{"n"}, "000000016e");
  expect_golden(NodeStatus{"node-7", 12.5, true},
                "000000066e6f64652d37402900000000000001");
  // Wire version 2: WatchNotify and StoreIngest carry lists.
  expect_golden(WatchNotify{7, 2, "unit", {"unit.000001", "u2"}},
                "00000000000000070200000004756e697400000002"
                "0000000b756e69742e303030303031000000027532");
  expect_golden(StoreIngest{"unit", {{"unit.000001", "agent.p1",
                                      {0x00, 0xff, 0x10}}}},
                "00000004756e697400000001"
                "0000000b756e69742e303030303031"
                "000000086167656e742e7031"
                "0000000300ff10");
  expect_golden(AgentCommand{"pilot.0", AgentCommand::kStopFailUnits},
                "0000000770696c6f742e3002");
  expect_golden(AgentEvent{"pilot.0", AgentEvent::kActive},
                "0000000770696c6f742e3000");
  expect_golden(SubmitRequest{"alice", {1, 2, 3}},
                "00000005616c69636500000003010203");
  expect_golden(SubmitReply{"unit.000002"},
                "0000000b756e69742e303030303032");
  expect_golden(Hello{Hello::kSubmitter, "s0", -1},
                "01000000027330ffffffffffffffff");
  expect_golden(UnitAssign{"u1", "map-1", 0.1},
                "000000027531000000056d61702d313fb999999999999a");
  expect_golden(UnitResult{"u1", "map-1", false},
                "000000027531000000056d61702d3100");
  expect_golden(Bye{}, "");
}

TEST(NetCodecGolden, FrameEncodesAsRecorded) {
  EXPECT_EQ(encode_frame(make_envelope(NodeProbe{"n"})),
            from_hex("484f48310003000f00000005000000016e"));
}

// --- hostile input ---------------------------------------------------

std::vector<std::uint8_t> sample_frame() {
  return encode_frame(make_envelope(
      UnitAssign{"unit-000001", "wave0-map-1", 12.25}));
}

TEST(NetCodecHostile, TruncationAtEveryByteNeverPartiallyDecodes) {
  const auto frame = sample_frame();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    // Header incomplete, or header complete and payload short: either
    // way the reader waits for more bytes and consumes none.
    RingBuffer ring = ring_of(frame, cut);
    Envelope out;
    EXPECT_FALSE(pop_frame(ring, &out)) << cut;
    EXPECT_EQ(ring.size(), cut) << cut;
  }
  RingBuffer ring = ring_of(frame);
  Envelope out;
  EXPECT_TRUE(pop_frame(ring, &out));
  EXPECT_TRUE(ring.empty());
}

TEST(NetCodecHostile, BackToBackFramesPopInOrder) {
  // Several frames buffered at once come off one at a time, in order,
  // and a trailing partial frame stays buffered untouched until it
  // completes.
  const auto first = encode_frame(make_envelope(NodeProbe{"a"}));
  const auto second = sample_frame();
  RingBuffer ring(64);
  ring.append(first.data(), first.size());
  ring.append(second.data(), second.size());
  ring.append(first.data(), kFrameHeaderBytes + 1);
  Envelope out;
  ASSERT_TRUE(pop_frame(ring, &out));
  EXPECT_EQ(open_envelope<NodeProbe>(out).node, "a");
  ASSERT_TRUE(pop_frame(ring, &out));
  EXPECT_EQ(open_envelope<UnitAssign>(out).name, "wave0-map-1");
  EXPECT_FALSE(pop_frame(ring, &out));
  EXPECT_EQ(ring.size(), kFrameHeaderBytes + 1);
  // The rest of the partial frame arrives; then one frame stays
  // buffered while more stream through, so the ring's head wraps past
  // the end of its storage and wrapped frames must come off intact.
  ring.append(first.data() + kFrameHeaderBytes + 1,
              first.size() - kFrameHeaderBytes - 1);
  ASSERT_TRUE(pop_frame(ring, &out));
  EXPECT_EQ(open_envelope<NodeProbe>(out).node, "a");
  ring.append(second.data(), second.size());
  for (int i = 0; i < 10; ++i) {
    ring.append(second.data(), second.size());
    ASSERT_TRUE(pop_frame(ring, &out)) << i;
    EXPECT_EQ(open_envelope<UnitAssign>(out).duration, 12.25) << i;
  }
}

TEST(NetCodecHostile, TruncatedPayloadFailsMessageUnpack) {
  // A frame whose length field undercuts the real message: the message
  // unpack hits the bounds check or expect_done, never reads past.
  RingBuffer ring = ring_of(sample_frame());
  Envelope out;
  ASSERT_TRUE(pop_frame(ring, &out));
  for (std::size_t cut = 0; cut < out.payload.size(); ++cut) {
    Envelope shorter = out;
    shorter.payload.resize(cut);
    EXPECT_THROW(open_envelope<UnitAssign>(shorter), CodecError) << cut;
  }
  // Trailing junk is equally fatal (length/payload disagreement).
  Envelope longer = out;
  longer.payload.push_back(0);
  EXPECT_THROW(open_envelope<UnitAssign>(longer), CodecError);
}

TEST(NetCodecHostile, BadMagicRejectedBeforePayload) {
  auto frame = sample_frame();
  frame[0] ^= 0x20;
  RingBuffer ring = ring_of(frame);
  Envelope out;
  EXPECT_THROW(pop_frame(ring, &out), CodecError);
}

TEST(NetCodecHostile, WrongVersionRejected) {
  auto frame = sample_frame();
  frame[5] = static_cast<std::uint8_t>(kWireVersion + 1);  // version lo byte
  RingBuffer ring = ring_of(frame);
  Envelope out;
  EXPECT_THROW(pop_frame(ring, &out), CodecError);
}

TEST(NetCodecHostile, CorruptLengthCannotDriveAllocation) {
  // Length field rewritten to ~4 GiB: the decoder must reject it from
  // the header alone (kMaxFrameBytes), not trust it.
  auto frame = sample_frame();
  frame[8] = 0xff;
  frame[9] = 0xff;
  frame[10] = 0xff;
  frame[11] = 0xff;
  RingBuffer ring = ring_of(frame);
  Envelope out;
  EXPECT_THROW(pop_frame(ring, &out), CodecError);
  // The header alone is enough to refuse it.
  RingBuffer header_only = ring_of(frame, kFrameHeaderBytes);
  EXPECT_THROW(pop_frame(header_only, &out), CodecError);
}

TEST(NetCodecHostile, StringLengthPastBufferThrows) {
  // A message payload whose string length prefix exceeds the payload.
  Packer p;
  p.u32(std::numeric_limits<std::uint32_t>::max());
  const Envelope env{MsgType::kNodeProbe, p.take()};
  EXPECT_THROW(open_envelope<NodeProbe>(env), CodecError);
}

/// A WatchNotify payload up to its key count, which is left to the
/// caller.
Packer notify_prefix() {
  Packer p;
  p.u64(7);
  p.u8(2);
  p.str("unit");
  return p;
}

TEST(NetCodecHostile, ListCountPastRemainingBytesRefusedBeforeAllocating) {
  // Every list element encodes to at least 4 bytes, so a count above
  // (remaining bytes / 4) is refused outright. A count of ~4 billion
  // would otherwise size a multi-gigabyte reserve before the first
  // element fails to decode.
  for (const std::uint32_t count : {0xffffffffu, 0x40000000u, 3u}) {
    Packer p = notify_prefix();
    p.u32(count);
    p.u32(0);  // two empty keys: 8 bytes
    p.u32(0);
    const Envelope env{MsgType::kWatchNotify, p.take()};
    EXPECT_THROW(open_envelope<WatchNotify>(env), CodecError) << count;
  }
  Packer exact = notify_prefix();
  exact.u32(2);
  exact.u32(0);
  exact.u32(0);
  EXPECT_EQ(open_envelope<WatchNotify>(
                Envelope{MsgType::kWatchNotify, exact.take()})
                .keys,
            (std::vector<std::string>{"", ""}));

  // The same for a list of fields() structs, whose elements are at
  // least 12 bytes (three length prefixes).
  static_assert(min_wire_bytes<StoreIngest::Unit>() == 12);
  Packer ingest;
  ingest.str("unit");
  ingest.u32(0x20000000);
  for (int i = 0; i < 3; ++i) ingest.u32(0);
  EXPECT_THROW(open_envelope<StoreIngest>(
                   Envelope{MsgType::kStoreIngest, ingest.take()}),
               CodecError);
}

TEST(NetCodecHostile, TruncatedListElementThrows) {
  // Cut anywhere inside a list (the count, a nested element's prefix or
  // its bytes) and the unpack throws; nothing is read past the end.
  const Envelope ingest = make_envelope(StoreIngest{
      "unit", {{"unit.000001", "agent.p1", {1, 2, 3}},
               {"unit.000002", "agent.p1", {4, 5, 6, 7}}}});
  const Envelope notify =
      make_envelope(WatchNotify{7, 2, "unit", {"unit.000001", "u2"}});
  for (const Envelope* env : {&ingest, &notify}) {
    for (std::size_t cut = 0; cut < env->payload.size(); ++cut) {
      Envelope shorter = *env;
      shorter.payload.resize(cut);
      if (env->type == MsgType::kStoreIngest) {
        EXPECT_THROW(open_envelope<StoreIngest>(shorter), CodecError) << cut;
      } else {
        EXPECT_THROW(open_envelope<WatchNotify>(shorter), CodecError) << cut;
      }
    }
  }
}

TEST(NetCodecRoundTrip, ListOfFieldStructs) {
  // Empty, one and many elements; each element's fields keep their
  // order and bytes.
  for (const std::size_t n : {0u, 1u, 40u}) {
    StoreIngest ingest{"unit", {}};
    for (std::size_t i = 0; i < n; ++i) {
      ingest.units.push_back(
          {"unit." + std::to_string(i), i % 2 == 0 ? "agent.p1" : "",
           std::vector<std::uint8_t>(i, static_cast<std::uint8_t>(i))});
    }
    const auto back = wire_round_trip(ingest);
    ASSERT_EQ(back.units.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(back.units[i].unit_id, ingest.units[i].unit_id);
      EXPECT_EQ(back.units[i].queue, ingest.units[i].queue);
      EXPECT_EQ(back.units[i].document, ingest.units[i].document);
    }
    EXPECT_EQ(make_envelope(back).payload, make_envelope(ingest).payload);
  }
}

TEST(NetCodecHostile, NonCanonicalBoolThrows) {
  // A bool is one byte, 0 or 1. Read as "non-zero", a 2 would decode
  // and then re-encode as 1: the message would have two encodings.
  for (const std::uint8_t b : {std::uint8_t{2}, std::uint8_t{0xff}}) {
    Envelope reply = make_envelope(AllocateReply{true, "node-7"});
    reply.payload.front() = b;  // ok leads the reply
    EXPECT_THROW(open_envelope<AllocateReply>(reply), CodecError) << +b;
    Envelope status = make_envelope(NodeStatus{"node-7", 12.5, true});
    status.payload.back() = b;  // alive ends the status
    EXPECT_THROW(open_envelope<NodeStatus>(status), CodecError) << +b;
  }
}

TEST(NetCodecHostile, TypeMismatchThrows) {
  const Envelope env = make_envelope(NodeProbe{"c401-001"});
  EXPECT_THROW(open_envelope<NodeStatus>(env), CodecError);
}

TEST(NetCodecHostile, RandomGarbageNeverCrashes) {
  // Seeded random buffers through the frame decoder and every message
  // unpacker: any outcome but a clean value or CodecError is a bug
  // (ASan/UBSan builds turn out-of-range reads into hard failures).
  common::Rng rng(0x5eed);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t size =
        static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::uint8_t> junk(size);
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    RingBuffer ring = ring_of(junk);
    Envelope out;
    try {
      (void)pop_frame(ring, &out);
    } catch (const CodecError&) {
    }
    const Envelope env{MsgType::kAllocateRequest, junk};
    try {
      (void)open_envelope<AllocateRequest>(env);
    } catch (const CodecError&) {
    }
    try {
      (void)pilot::unpack_unit_document(junk);
    } catch (const CodecError&) {
    }
  }
}

// --- unit document codec -------------------------------------------

/// Description shapes the store sees: defaults (every list empty),
/// every list filled, staging with sizes, MPI, a negative exit code and
/// a large memory ask.
std::vector<pilot::UnitRecord> unit_shapes() {
  std::vector<pilot::UnitRecord> shapes;
  pilot::UnitRecord base;
  base.state = pilot::UnitState::kPendingAgent;
  base.pilot = "pilot.0000";
  shapes.push_back(base);  // all lists empty

  pilot::UnitRecord full = base;
  full.state = pilot::UnitState::kNew;
  full.description.name = "kmeans-map-3";
  full.description.executable = "/bin/python";
  full.description.arguments = {"kmeans.py", "--iter", "2"};
  full.description.input_staging = {
      {saga::Url("file://stampede/points.csv"), 1024}};
  full.description.output_staging = {
      {saga::Url("file://stampede/out.csv"), 64}};
  full.description.preferred_nodes = {"c401-001", "c401-002"};
  full.description.depends_on = {"unit.000001", "unit.000002"};
  shapes.push_back(full);

  pilot::UnitRecord staged = base;
  staged.description.input_staging = {
      {saga::Url("hdfs://wrangler/data/part-0"), 5 * common::kGiB},
      {saga::Url("file://wrangler/scratch/tiny.bin"), 0}};
  staged.description.output_staging = {
      {saga::Url("file://wrangler/results/"), 123456789}};
  shapes.push_back(staged);

  pilot::UnitRecord mpi = base;
  mpi.state = pilot::UnitState::kFailed;
  mpi.description.is_mpi = true;
  mpi.description.cores = 256;
  mpi.description.executable = "/usr/bin/mpiexec";
  shapes.push_back(mpi);

  pilot::UnitRecord failing = base;
  failing.state = pilot::UnitState::kDone;
  failing.description.exit_code = -11;
  failing.description.duration = 0.1 + 0.2;
  shapes.push_back(failing);

  pilot::UnitRecord big = base;
  big.description.memory_mb = std::int64_t{1} << 40;
  big.description.duration = 1.7976931348623157e308;
  big.description.name = "quoted \"name\" with\nnewline";
  big.pilot = "";
  shapes.push_back(big);
  return shapes;
}

/// Lower-case hex of \p bytes, the inverse of from_hex.
std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

TEST(UnitDocumentCodecGolden, EveryShapeEncodesAsRecorded) {
  // The state byte, the pilot id, then the description's fields in
  // declaration order: ints as i64, a list as a u32 count and its
  // elements, a staged file as its URL text and size.
  const std::vector<std::string> recorded = {
      "020000000a70696c6f742e3030303000000004756e6974000000092f62696e2f"
      "7461736b00000000000000000000000100000000000008003ff0000000000000"
      "00000000000000000000000000000000000000000000000000",
      "000000000a70696c6f742e303030300000000c6b6d65616e732d6d61702d3300"
      "00000b2f62696e2f707974686f6e00000003000000096b6d65616e732e707900"
      "0000062d2d697465720000000132000000000000000100000000000008003ff0"
      "0000000000000000000000000000000000010000001a66696c653a2f2f737461"
      "6d706564652f706f696e74732e63737600000000000004000000000100000017"
      "66696c653a2f2f7374616d706564652f6f75742e637376000000000000004000"
      "00000200000008633430312d30303100000008633430312d3030320000000002"
      "0000000b756e69742e3030303030310000000b756e69742e303030303032",
      "020000000a70696c6f742e3030303000000004756e6974000000092f62696e2f"
      "7461736b00000000000000000000000100000000000008003ff0000000000000"
      "0000000000000000000000020000001b686466733a2f2f7772616e676c65722f"
      "646174612f706172742d3000000001400000000000002066696c653a2f2f7772"
      "616e676c65722f736372617463682f74696e792e62696e000000000000000000"
      "0000010000001866696c653a2f2f7772616e676c65722f726573756c74732f00"
      "000000075bcd15000000000000000000",
      "090000000a70696c6f742e3030303000000004756e6974000000102f7573722f"
      "62696e2f6d70696578656300000000000000000000010000000000000008003f"
      "f000000000000000000000000000000000000000000000000000000100000000",
      "070000000a70696c6f742e3030303000000004756e6974000000092f62696e2f"
      "7461736b00000000000000000000000100000000000008003fd3333333333334"
      "fffffffffffffff50000000000000000000000000000000000",
      "02000000000000001a71756f74656420226e616d652220776974680a6e65776c"
      "696e65000000092f62696e2f7461736b00000000000000000000000100000100"
      "000000007fefffffffffffff0000000000000000000000000000000000000000"
      "0000000000",
  };
  const auto shapes = unit_shapes();
  ASSERT_EQ(shapes.size(), recorded.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto bytes = pilot::pack_unit_document(shapes[i]);
    EXPECT_EQ(to_hex(bytes), recorded[i]) << i;
    // The recorded image decodes to the record and packs back to itself.
    const pilot::UnitRecord back =
        pilot::unpack_unit_document(from_hex(recorded[i]));
    EXPECT_EQ(back.state, shapes[i].state) << i;
    EXPECT_EQ(back.pilot, shapes[i].pilot) << i;
    EXPECT_EQ(back.description.name, shapes[i].description.name) << i;
    EXPECT_EQ(pilot::pack_unit_document(back), bytes) << i;
    // The description alone (a SubmitRequest's) is the document's tail.
    const auto desc = pilot::pack_unit_description(shapes[i].description);
    ASSERT_LE(desc.size(), bytes.size());
    EXPECT_TRUE(std::equal(desc.begin(), desc.end(),
                           bytes.end() - static_cast<std::ptrdiff_t>(
                                             desc.size())))
        << i;
    EXPECT_EQ(pilot::pack_unit_description(
                  pilot::unpack_unit_description(desc)),
              desc)
        << i;
  }
}

TEST(UnitDocumentCodecGolden, DurationsCrossBitExact) {
  // A computed duration crosses unrounded: the simulation's event times
  // depend on its last bit.
  for (const double duration : {0.1 + 0.2, -0.0, DBL_MAX, 5e-324}) {
    pilot::UnitRecord unit = unit_shapes()[0];
    unit.description.duration = duration;
    const auto bytes = pilot::pack_unit_document(unit);
    Packer bits;
    bits.f64(duration);
    EXPECT_NE(std::search(bytes.begin(), bytes.end(), bits.data().begin(),
                          bits.data().end()),
              bytes.end())
        << duration;
    const double back =
        pilot::unpack_unit_document(bytes).description.duration;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(duration))
        << duration;
  }
}

TEST(UnitDocumentCodecGolden, SmallestDocumentIsMinWireBytes) {
  // Every string and list empty: the document is exactly the bound a
  // list count of records would be checked against.
  static_assert(min_wire_bytes<pilot::UnitRecord>() == 66);
  static_assert(min_wire_bytes<pilot::StagedFile>() == 12);
  pilot::UnitRecord empty;
  empty.description.name.clear();
  empty.description.executable.clear();
  EXPECT_EQ(pilot::pack_unit_document(empty).size(),
            min_wire_bytes<pilot::UnitRecord>());
}

TEST(UnitDocumentCodecHostile, TruncatedAtEveryByteThrows) {
  for (const pilot::UnitRecord& unit : unit_shapes()) {
    const auto bytes = pilot::pack_unit_document(unit);
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      const std::vector<std::uint8_t> cut(bytes.begin(),
                                          bytes.begin() + n);
      EXPECT_THROW(pilot::unpack_unit_document(cut), CodecError) << n;
    }
    auto longer = bytes;
    longer.push_back(0);
    EXPECT_THROW(pilot::unpack_unit_document(longer), CodecError);
  }
}

/// The offset of \p pattern's first occurrence in \p bytes.
std::size_t offset_of(const std::vector<std::uint8_t>& bytes,
                      const std::vector<std::uint8_t>& pattern) {
  const auto it =
      std::search(bytes.begin(), bytes.end(), pattern.begin(), pattern.end());
  EXPECT_NE(it, bytes.end());
  return static_cast<std::size_t>(it - bytes.begin());
}

TEST(UnitDocumentCodecHostile, WrongValueTypeThrows) {
  // The document carries no keys or type tags: a value is wrong when
  // its bytes hold nothing its field's type can.
  const pilot::UnitRecord unit = unit_shapes()[1];
  const auto good = pilot::pack_unit_document(unit);
  ASSERT_NO_THROW(pilot::unpack_unit_document(good));

  // A state byte past the last state (the state leads the document).
  for (const std::uint8_t state : {std::uint8_t{10}, std::uint8_t{0xff}}) {
    auto bad = good;
    bad[0] = state;
    EXPECT_THROW(pilot::unpack_unit_document(bad), CodecError) << +state;
  }

  // A URL without "://".
  const std::string url = "file://stampede/points.csv";
  auto bad_url = good;
  bad_url[offset_of(good, {url.begin(), url.end()}) + 5] = 'x';
  EXPECT_THROW(pilot::unpack_unit_document(bad_url), CodecError);

  // An i64 no int holds, in place of the cores count.
  pilot::UnitRecord marked = unit;
  marked.description.cores = 0x5a5a5a5a;
  const auto marked_bytes = pilot::pack_unit_document(marked);
  Packer marker;
  marker.put(std::int64_t{0x5a5a5a5a});
  const std::size_t cores_at = offset_of(marked_bytes, marker.data());
  for (const std::int64_t wide :
       {std::int64_t{INT_MAX} + 1, std::int64_t{INT_MIN} - 1,
        std::numeric_limits<std::int64_t>::min()}) {
    Packer p;
    p.put(wide);
    auto bad = marked_bytes;
    std::copy(p.data().begin(), p.data().end(),
              bad.begin() + static_cast<std::ptrdiff_t>(cores_at));
    EXPECT_THROW(pilot::unpack_unit_document(bad), CodecError) << wide;
  }
  // The ends of the int range cross.
  marked.description.cores = INT_MAX;
  marked.description.exit_code = INT_MIN;
  const pilot::UnitRecord ends =
      pilot::unpack_unit_document(pilot::pack_unit_document(marked));
  EXPECT_EQ(ends.description.cores, INT_MAX);
  EXPECT_EQ(ends.description.exit_code, INT_MIN);

  // A bool byte other than 0 or 1: the MPI shape has no dependencies,
  // so is_mpi sits just before their empty list's count.
  auto mpi = pilot::pack_unit_document(unit_shapes()[3]);
  const std::size_t is_mpi_at = mpi.size() - 5;
  ASSERT_EQ(mpi[is_mpi_at], 1);
  mpi[is_mpi_at] = 2;
  EXPECT_THROW(pilot::unpack_unit_document(mpi), CodecError);
}

TEST(UnitDocumentCodecHostile, MalformedIngestLeavesNoRecord) {
  // store.ingest decodes every document of the batch before it puts
  // anything: a refused document leaves neither a record nor a queued
  // id, not even for the well-formed units listed before it.
  sim::Engine engine;
  InProcessTransport transport;
  pilot::StateStore store(engine);
  store.set_transport(&transport);
  const auto good = pilot::pack_unit_document(unit_shapes()[1]);
  auto bytes = good;
  bytes.pop_back();
  EXPECT_THROW(call<Ack>(transport, "store.ingest",
                         StoreIngest{"unit", {{"unit.000009", "agent.p1",
                                               bytes}}}),
               CodecError);
  EXPECT_THROW(call<Ack>(transport, "store.ingest",
                         StoreIngest{"unit", {{"unit.000007", "agent.p1", good},
                                              {"unit.000008", "agent.p1", good},
                                              {"unit.000009", "agent.p1",
                                               bytes}}}),
               CodecError);
  EXPECT_THROW(call<Ack>(transport, "store.ingest",
                         StoreIngest{"heartbeat", {{"unit.000009", "agent.p1",
                                                    good}}}),
               CodecError);
  for (const char* id : {"unit.000007", "unit.000008", "unit.000009"}) {
    EXPECT_FALSE(store.unit_description(id).has_value()) << id;
  }
  EXPECT_EQ(store.queue_depth("agent.p1"), 0u);
  EXPECT_EQ(store.mutation_count(), 0u);

  call<Ack>(transport, "store.ingest",
            StoreIngest{"unit", {{"unit.000009", "agent.p1", good},
                                 {"unit.000007", "", good}}});
  EXPECT_EQ(store.unit_state("unit.000009"), pilot::UnitState::kNew);
  EXPECT_EQ(store.unit_state("unit.000007"), pilot::UnitState::kNew);
  EXPECT_EQ(store.queue_pop_all("agent.p1"),
            std::vector<std::string>{"unit.000009"});
  store.set_transport(nullptr);
}

}  // namespace
}  // namespace hoh::net

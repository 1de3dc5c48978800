// Transport contract tests (DESIGN.md §14): InProcessTransport and
// SocketTransport must be observationally identical at the call site —
// same replies byte-for-byte, same handler-thread semantics, same
// errors — with the socket one additionally surviving a torn
// connection mid-run (reconnect/backoff, retransmit).

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "net/message.h"
#include "net/socket_transport.h"
#include "net/transport.h"

namespace hoh::net {
namespace {

/// Runs the same scripted exchange against a transport and returns
/// every reply frame's raw bytes, for cross-implementation comparison.
std::vector<std::vector<std::uint8_t>> scripted_exchange(Transport& t) {
  std::vector<std::vector<std::uint8_t>> replies;
  int sends_seen = 0;
  t.register_endpoint("test.echo", [](const Envelope& env) {
    auto probe = open_envelope<NodeProbe>(env);
    return make_envelope(NodeStatus{probe.node, 42.125, true});
  });
  t.register_endpoint("test.sink", [&sends_seen](const Envelope& env) {
    open_envelope<WatchNotify>(env);
    ++sends_seen;
    return make_envelope(Ack{});
  });
  for (int i = 0; i < 20; ++i) {
    const Envelope reply = t.call(
        "test.echo",
        make_envelope(NodeProbe{"node-" + std::to_string(i)}));
    replies.push_back(encode_frame(reply));
    send(t, "test.sink",
         WatchNotify{static_cast<std::uint64_t>(i), 1, "unit",
                     {"key-" + std::to_string(i)}});
  }
  EXPECT_EQ(sends_seen, 20);
  t.unregister_endpoint("test.echo");
  t.unregister_endpoint("test.sink");
  return replies;
}

TEST(TransportParity, SocketRepliesByteIdenticalToInProcess) {
  InProcessTransport inproc;
  SocketTransport socket;
  EXPECT_EQ(scripted_exchange(inproc), scripted_exchange(socket));
}

TEST(TransportParity, HandlerRunsOnCallerThreadInBothModes) {
  // The refactored components mutate the single-threaded simulation
  // engine from inside handlers; that is only sound because dispatch
  // stays on the calling thread in both modes.
  const auto caller = std::this_thread::get_id();
  for (const bool use_socket : {false, true}) {
    std::unique_ptr<Transport> t;
    if (use_socket) {
      t = std::make_unique<SocketTransport>();
    } else {
      t = std::make_unique<InProcessTransport>();
    }
    std::thread::id handler_thread;
    t->register_endpoint("test.tid", [&handler_thread](const Envelope&) {
      handler_thread = std::this_thread::get_id();
      return make_envelope(Ack{});
    });
    call<Ack>(*t, "test.tid", Bye{});
    EXPECT_EQ(handler_thread, caller) << t->mode();
  }
}

TEST(TransportParity, UnknownEndpointThrowsInBothModes) {
  InProcessTransport inproc;
  SocketTransport socket;
  for (Transport* t : {static_cast<Transport*>(&inproc),
                       static_cast<Transport*>(&socket)}) {
    EXPECT_THROW(t->call("nobody.home", make_envelope(Bye{})),
                 common::NotFoundError)
        << t->mode();
    EXPECT_FALSE(t->has_endpoint("nobody.home"));
  }
}

TEST(TransportParity, ReRegisterReplacesHandler) {
  SocketTransport t;
  t.register_endpoint("test.v", [](const Envelope&) {
    return make_envelope(SubmitReply{"old"});
  });
  t.register_endpoint("test.v", [](const Envelope&) {
    return make_envelope(SubmitReply{"new"});
  });
  EXPECT_EQ(call<SubmitReply>(t, "test.v", Bye{}).unit_id, "new");
  t.unregister_endpoint("test.v");
}

// A handler may replace its own endpoint while it runs (a component
// respawning under its name): the running handler, captures and all,
// lives until it returns, and the next call reaches the new one.
TEST(TransportParity, HandlerReRegistersItsOwnEndpoint) {
  InProcessTransport inproc;
  SocketTransport socket;
  for (Transport* t : {static_cast<Transport*>(&inproc),
                       static_cast<Transport*>(&socket)}) {
    // Longer than any small-string buffer, so a destroyed capture shows.
    const std::string old_tag(64, 'o');
    t->register_endpoint("test.self", [t, old_tag](const Envelope&) {
      t->register_endpoint("test.self", [](const Envelope&) {
        return make_envelope(SubmitReply{"new"});
      });
      return make_envelope(SubmitReply{old_tag});
    });
    EXPECT_EQ(call<SubmitReply>(*t, "test.self", Bye{}).unit_id, old_tag)
        << t->mode();
    EXPECT_EQ(call<SubmitReply>(*t, "test.self", Bye{}).unit_id, "new")
        << t->mode();
    EXPECT_EQ(t->stats().calls, 2u) << t->mode();
    t->unregister_endpoint("test.self");
  }
}

// A handler may unregister its own endpoint while it runs: it finishes
// its reply, and later calls find no endpoint.
TEST(TransportParity, HandlerUnregistersItsOwnEndpoint) {
  InProcessTransport inproc;
  SocketTransport socket;
  for (Transport* t : {static_cast<Transport*>(&inproc),
                       static_cast<Transport*>(&socket)}) {
    const std::string tag(64, 'u');
    t->register_endpoint("test.once", [t, tag](const Envelope&) {
      t->unregister_endpoint("test.once");
      return make_envelope(SubmitReply{tag});
    });
    EXPECT_EQ(call<SubmitReply>(*t, "test.once", Bye{}).unit_id, tag)
        << t->mode();
    EXPECT_EQ(t->stats().calls, 1u) << t->mode();
    EXPECT_FALSE(t->has_endpoint("test.once")) << t->mode();
    EXPECT_THROW(t->call("test.once", make_envelope(Bye{})),
                 common::NotFoundError)
        << t->mode();
  }
}

TEST(SocketTransport, CountsTrafficAndRoundTripsBytes) {
  SocketTransport t;
  t.register_endpoint("test.echo", [](const Envelope& env) {
    return make_envelope(open_envelope<StoreIngest>(env));
  });
  StoreIngest ingest{"unit", {{"unit-000001", "agent.p1", {}}}};
  auto& document = ingest.units[0].document;
  document.assign(4096, 0xab);
  const auto back = call<StoreIngest>(t, "test.echo", ingest);
  ASSERT_EQ(back.units.size(), 1u);
  EXPECT_EQ(back.units[0].document, document);
  const TransportStats stats = t.stats();
  EXPECT_EQ(stats.calls, 1u);
  // Request and reply each cross the wire: > 2 documents' worth.
  EXPECT_GT(stats.bytes_sent, 2 * document.size());
  EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
  t.unregister_endpoint("test.echo");
}

TEST(SocketTransport, FrameLargerThanSocketBuffers) {
  // A frame far larger than the kernel's loopback socket buffers: a
  // blocking write of the whole frame before reading the far side would
  // never return, so the wire must interleave sends and receives.
  SocketTransport t;
  t.register_endpoint("test.echo", [](const Envelope& env) {
    return make_envelope(open_envelope<StoreIngest>(env));
  });
  StoreIngest ingest{"unit", {{"unit-000001", "agent.p1", {}}}};
  auto& document = ingest.units[0].document;
  document.resize(8u << 20);
  for (std::size_t i = 0; i < document.size(); ++i) {
    document[i] = static_cast<std::uint8_t>(i * 31 + (i >> 12));
  }
  ASSERT_LT(document.size() + 4096, kMaxFrameBytes);
  const auto back = call<StoreIngest>(t, "test.echo", ingest);
  ASSERT_EQ(back.units.size(), 1u);
  EXPECT_EQ(back.units[0].document, document);
  const TransportStats stats = t.stats();
  EXPECT_GT(stats.bytes_sent, 2 * document.size());
  EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
  EXPECT_EQ(stats.reconnects, 0u);
  t.unregister_endpoint("test.echo");
}

TEST(SocketTransport, ConcurrentCallersEachGetTheirReply) {
  // Two threads share one wire; each crossing is atomic, so neither can
  // consume the other's frame.
  SocketTransport t;
  t.register_endpoint("test.echo", [](const Envelope& env) {
    return make_envelope(open_envelope<NodeProbe>(env));
  });
  constexpr int kCalls = 500;
  int mismatches[2] = {0, 0};
  std::vector<std::thread> callers;
  for (int id = 0; id < 2; ++id) {
    callers.emplace_back([&t, &mismatches, id] {
      for (int i = 0; i < kCalls; ++i) {
        const std::string node =
            "caller" + std::to_string(id) + "-" + std::to_string(i);
        if (call<NodeProbe>(t, "test.echo", NodeProbe{node}).node != node) {
          ++mismatches[id];
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
  const TransportStats stats = t.stats();
  EXPECT_EQ(stats.calls, 2u * kCalls);
  EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
  t.unregister_endpoint("test.echo");
}

TEST(SocketTransport, ReconnectsAfterTornConnection) {
  SocketTransportConfig config;
  config.reconnect.base_backoff = 0.001;
  config.reconnect.max_backoff = 0.02;
  SocketTransport t(config);
  t.register_endpoint("test.echo", [](const Envelope& env) {
    return make_envelope(open_envelope<NodeProbe>(env));
  });
  EXPECT_EQ(call<NodeProbe>(t, "test.echo", NodeProbe{"a"}).node, "a");
  for (int round = 0; round < 3; ++round) {
    t.kill_connection();
    // The in-flight frame is retransmitted on the repaired connection;
    // the caller never observes the tear.
    EXPECT_EQ(call<NodeProbe>(t, "test.echo",
                              NodeProbe{"r" + std::to_string(round)})
                  .node,
              "r" + std::to_string(round))
        << round;
  }
  EXPECT_GE(t.stats().reconnects, 3u);
  t.unregister_endpoint("test.echo");
}

TEST(SocketTransport, BindsEphemeralPortByDefault) {
  SocketTransport a;
  SocketTransport b;
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());  // two transports coexist
}

TEST(SocketTransport, NestedCallFromHandler) {
  // A handler may itself issue a transport call (RM handlers do: the
  // NM launch path sends ContainerRunning back through the transport).
  SocketTransport t;
  t.register_endpoint("test.inner", [](const Envelope&) {
    return make_envelope(SubmitReply{"inner"});
  });
  t.register_endpoint("test.outer", [&t](const Envelope&) {
    const auto inner = call<SubmitReply>(t, "test.inner", Bye{});
    return make_envelope(SubmitReply{inner.unit_id + "+outer"});
  });
  EXPECT_EQ(call<SubmitReply>(t, "test.outer", Bye{}).unit_id,
            "inner+outer");
  t.unregister_endpoint("test.outer");
  t.unregister_endpoint("test.inner");
}

}  // namespace
}  // namespace hoh::net

#include "pilot/state_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "pilot/agent/agent.h"
#include "pilot/descriptions.h"
#include "pilot/unit_record.h"

namespace hoh::pilot {
namespace {

UnitRecord pending(const std::string& pilot = "pilot.0",
                   ComputeUnitDescription desc = {}) {
  UnitRecord unit;
  unit.state = UnitState::kPendingAgent;
  unit.pilot = pilot;
  unit.description = std::make_shared<const ComputeUnitDescription>(desc);
  return unit;
}

/// Unit \p id's Json document as find_all("unit") builds it.
common::Json document(const StateStore& store, const std::string& id) {
  for (auto& [key, doc] : store.find_all("unit")) {
    if (key == id) return doc;
  }
  ADD_FAILURE() << "no unit " << id;
  return {};
}

TEST(StateStoreTest, PutGetRoundTrip) {
  sim::Engine engine;
  StateStore store(engine);
  ComputeUnitDescription desc;
  desc.name = "map-0";
  const UnitIndex index = store.put_unit("unit.0", pending("pilot.0", desc));
  EXPECT_EQ(store.unit_index("unit.0"), index);
  EXPECT_EQ(store.unit_id(index), "unit.0");
  EXPECT_EQ(store.unit_state(index), UnitState::kPendingAgent);
  ASSERT_NE(store.unit_description(index), nullptr);
  EXPECT_EQ(store.unit_description(index)->name, "map-0");
  const common::Json doc = document(store, "unit.0");
  EXPECT_EQ(doc.at("state").as_string(), "PendingAgent");
  EXPECT_EQ(doc.at("pilot").as_string(), "pilot.0");
  EXPECT_EQ(doc.at("description").at("name").as_string(), "map-0");
  EXPECT_FALSE(store.unit_index("missing").has_value());
  EXPECT_EQ(store.unit_description(index + 1), nullptr);
}

TEST(StateStoreTest, UpdateMergesFields) {
  sim::Engine engine;
  StateStore store(engine);
  const UnitIndex u = store.put_unit("u", pending("pilot.0"));
  store.set_unit_state(u, UnitState::kAgentScheduling);
  const common::Json got = document(store, "u");
  EXPECT_EQ(got.at("state").as_string(), "AgentScheduling");
  EXPECT_EQ(got.at("pilot").as_string(), "pilot.0");  // untouched
  // A rebind moves the pilot with the state.
  store.set_unit_state(u, UnitState::kFailed);
  store.set_unit_state(u, UnitState::kPendingAgent, "pilot.1");
  EXPECT_EQ(document(store, "u").at("pilot").as_string(), "pilot.1");
}

TEST(StateStoreTest, UpdateRejectsIllegalUnitTransition) {
  sim::Engine engine;
  StateStore store(engine);
  const UnitIndex u = store.put_unit("u", pending());
  const auto digest = store.schedule_digest();
  // PendingAgent -> Executing skips AgentScheduling: not a Fig. 3 edge.
  EXPECT_THROW(store.set_unit_state(u, UnitState::kExecuting),
               common::StateError);
  // The rejected write must not have leaked into the document.
  EXPECT_EQ(document(store, "u").at("state").as_string(), "PendingAgent");
  EXPECT_EQ(store.unit_state(u), UnitState::kPendingAgent);
  EXPECT_EQ(store.schedule_digest(), digest);
}

TEST(StateStoreTest, PutUnitReingestIsUngatedAndUnfolded) {
  // A held unit enters as kNew and is put again as kPendingAgent when
  // its dependencies resolve: a put, neither gated nor folded into the
  // schedule digest.
  sim::Engine engine;
  StateStore store(engine);
  UnitRecord held = pending();
  held.state = UnitState::kNew;
  const UnitIndex u = store.put_unit("u", held);
  const auto digest = store.schedule_digest();
  EXPECT_EQ(store.put_unit("u", pending()), u);  // the same row
  EXPECT_EQ(store.unit_state(u), UnitState::kPendingAgent);
  EXPECT_EQ(store.schedule_digest(), digest);
  // A gated write is folded.
  store.set_unit_state(u, UnitState::kAgentScheduling);
  EXPECT_NE(store.schedule_digest(), digest);
}

TEST(StateStoreTest, TypedUnitReads) {
  sim::Engine engine;
  StateStore store(engine);
  ComputeUnitDescription put;
  put.name = "map-7";
  put.depends_on = {"unit.1"};
  const UnitRecord unit = pending("pilot.0", put);
  const UnitIndex u = store.put_unit("u", unit);
  const auto desc = store.unit_description(u);
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->name, "map-7");
  EXPECT_EQ(desc->depends_on, std::vector<std::string>{"unit.1"});
  // The record holds the put description itself: reads share it.
  EXPECT_EQ(desc, unit.description);
  const UnitIndex missing = u + 1;
  EXPECT_EQ(store.unit_description(missing), nullptr);
  EXPECT_THROW(store.unit_state(missing), common::NotFoundError);
  EXPECT_THROW(store.set_unit_state(missing, UnitState::kCanceled),
               common::NotFoundError);
  EXPECT_THROW(store.queue_push("q", missing), common::NotFoundError);
  EXPECT_THROW(store.unit_id(missing), common::NotFoundError);
  // Each typed read is one op; resolving an id or an index is none.
  const auto ops = store.op_count();
  store.unit_state(u);
  store.unit_description(u);
  store.unit_index("u");
  store.unit_id(u);
  EXPECT_EQ(store.op_count() - ops, 2u);
}

TEST(StateStoreTest, SinkWritesRetireTheDescription) {
  sim::Engine engine;
  StateStore store(engine);
  ComputeUnitDescription desc;
  desc.name = "map-3";
  desc.arguments = {"--k", "8"};
  const UnitIndex done = store.put_unit("done", pending("pilot.0", desc));
  const UnitIndex canceled =
      store.put_unit("canceled", pending("pilot.0", desc));
  const UnitIndex failed = store.put_unit("failed", pending("pilot.0", desc));
  for (const UnitState s : {UnitState::kAgentScheduling,
                            UnitState::kExecuting, UnitState::kDone}) {
    store.set_unit_state(done, s);
  }
  store.set_unit_state(canceled, UnitState::kCanceled);
  store.set_unit_state(failed, UnitState::kAgentScheduling);
  store.set_unit_state(failed, UnitState::kFailed);

  // Done and Canceled are sinks: their rows drop the description...
  EXPECT_EQ(store.unit_description(done), default_description());
  EXPECT_EQ(store.unit_description(canceled), default_description());
  // ...and keep id, state, pilot, run times and the name.
  EXPECT_EQ(store.unit_id(done), "done");
  EXPECT_EQ(store.unit_state(done), UnitState::kDone);
  EXPECT_FALSE(std::isnan(store.unit_run_times(done).executing));
  EXPECT_FALSE(std::isnan(store.unit_run_times(done).done));
  const common::Json doc = document(store, "done");
  EXPECT_EQ(doc.at("state").as_string(), "Done");
  EXPECT_EQ(doc.at("pilot").as_string(), "pilot.0");
  EXPECT_EQ(doc.at("description"), common::Json::parse(R"({"name": "map-3"})"));
  const common::Json gone = document(store, "canceled");
  EXPECT_EQ(gone.at("state").as_string(), "Canceled");
  EXPECT_EQ(gone.at("pilot").as_string(), "pilot.0");
  EXPECT_EQ(gone.at("description").at("name").as_string(), "map-3");

  // A Failed row keeps its description: the requeue onto another pilot
  // hands the same one over.
  const SharedDescription kept = store.unit_description(failed);
  ASSERT_NE(kept, default_description());
  EXPECT_EQ(kept->arguments, desc.arguments);
  store.set_unit_state(failed, UnitState::kPendingAgent, "pilot.1");
  store.queue_push("agent.pilot.1", failed);
  EXPECT_EQ(store.queue_pop_all("agent.pilot.1"),
            std::vector<UnitIndex>{failed});
  EXPECT_EQ(store.unit_description(failed), kept);
  EXPECT_EQ(document(store, "failed").at("description").at("arguments"),
            common::Json::parse(R"(["--k", "8"])"));
}

TEST(StateStoreTest, HeartbeatsAreTypedAndWatched) {
  sim::Engine engine;
  StateStore store(engine);
  std::vector<std::string> keys;
  store.watch("heartbeat", "pilot.1",
              [&keys](const WatchEvent& e) { keys.push_back(e.key); });
  EXPECT_FALSE(store.heartbeat("pilot.1").has_value());
  const auto ops = store.op_count();
  const auto muts = store.mutation_count();
  store.put_heartbeat("pilot.1", HeartbeatRecord{true, 12.5, 3, 1, 2});
  store.put_heartbeat("pilot.2", HeartbeatRecord{true, 13.0, 0, 0, 0});
  store.put_heartbeat("pilot.1", HeartbeatRecord{false, 20.0, 4, 1, 0});
  // A write is one op and one mutation, a read one op.
  EXPECT_EQ(store.mutation_count() - muts, 3u);
  const auto latest = store.heartbeat("pilot.1");
  EXPECT_EQ(store.op_count() - ops, 4u);
  ASSERT_TRUE(latest.has_value());
  EXPECT_FALSE(latest->alive);
  EXPECT_EQ(latest->last_heartbeat, 20.0);
  EXPECT_EQ(latest->units_completed, 4u);
  EXPECT_EQ(latest->units_failed, 1u);
  EXPECT_EQ(latest->units_running, 0u);
  engine.run_until(1.0);
  EXPECT_EQ(keys, (std::vector<std::string>{"pilot.1", "pilot.1"}));
}

TEST(StateStoreTest, QueueFifoAndDrain) {
  sim::Engine engine;
  StateStore store(engine);
  const UnitIndex a = store.put_unit("a", pending());
  const UnitIndex b = store.put_unit("b", pending());
  store.queue_push("agent.p0", a);
  store.queue_push("agent.p0", b);
  EXPECT_EQ(store.queue_depth("agent.p0"), 2u);
  auto drained = store.queue_pop_all("agent.p0");
  EXPECT_EQ(drained, (std::vector<UnitIndex>{a, b}));
  EXPECT_EQ(store.queue_depth("agent.p0"), 0u);
  EXPECT_TRUE(store.queue_pop_all("agent.p0").empty());
  EXPECT_TRUE(store.queue_pop_all("never-used").empty());
}

TEST(StateStoreTest, FindAllSorted) {
  sim::Engine engine;
  StateStore store(engine);
  store.put_unit("b", pending());
  store.put_unit("a", pending());
  ComputeUnitDescription staged;
  staged.cores = 4;
  staged.input_staging = {{saga::Url("file://stampede/points.csv"), 1024}};
  staged.depends_on = {"a"};
  store.put_unit("c", pending("pilot.0", staged));
  auto all = store.find_all("unit");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[1].first, "b");
  // The document's keys; empty lists are left out.
  const auto parsed = common::Json::parse(
      R"({"description": {"cores": 4, "depends_on": ["a"], "duration": 1,)"
      R"( "executable": "/bin/task", "exit_code": 0, "input_staging":)"
      R"( [{"size": 1024, "url": "file://stampede/points.csv"}],)"
      R"( "is_mpi": false, "memory_mb": 2048, "name": "unit"},)"
      R"( "pilot": "pilot.0", "state": "PendingAgent"})");
  EXPECT_EQ(all[2].second, parsed);
  // Units are the one collection it reads.
  EXPECT_THROW(store.find_all("heartbeat"), common::ConfigError);
}

TEST(StateStoreTest, OpCounting) {
  sim::Engine engine;
  StateStore store(engine);
  const UnitIndex x = store.put_unit("x", pending());
  const auto before = store.op_count();
  store.put_heartbeat("pilot.0", HeartbeatRecord{});
  store.heartbeat("pilot.0");
  store.queue_push("q", x);
  store.queue_pop_all("q");
  EXPECT_EQ(store.op_count(), before + 4);
}

TEST(StateStoreTest, WriteFeedNamesEachWriteUntilDrained) {
  sim::Engine engine;
  StateStore store(engine);
  store.put_unit("before", pending());  // predates the feed

  const auto ops = store.op_count();
  const auto feed = store.open_feed();
  const auto other = store.open_feed();
  EXPECT_NE(feed, 0u);
  EXPECT_NE(feed, other);
  const UnitIndex a = store.put_unit("a", pending());
  store.set_unit_state(a, UnitState::kAgentScheduling);
  const UnitIndex b = store.put_unit("b", pending());
  // Heartbeats and queue traffic are not unit writes.
  store.put_heartbeat("pilot.0", HeartbeatRecord{});
  store.queue_push("agent.pilot.0", a);
  store.queue_pop_all("agent.pilot.0");
  // A write the transition gate rejects never happened.
  EXPECT_THROW(store.set_unit_state(b, UnitState::kNew),
               common::StateError);

  const std::vector<UnitIndex> written{a, a, b};
  EXPECT_EQ(store.drain_feed(feed), written);
  EXPECT_TRUE(store.drain_feed(feed).empty());
  store.set_unit_state(b, UnitState::kAgentScheduling);
  EXPECT_EQ(store.drain_feed(feed), std::vector<UnitIndex>{b});
  // Feeds are independent: the second still holds everything.
  EXPECT_EQ(store.drain_feed(other), (std::vector<UnitIndex>{a, a, b, b}));

  store.close_feed(feed);
  const UnitIndex c = store.put_unit("c", pending());
  EXPECT_TRUE(store.drain_feed(feed).empty());
  EXPECT_EQ(store.drain_feed(other), std::vector<UnitIndex>{c});
  // Opening, draining and closing feeds are not ops: the 9 counted are
  // the writes, queue calls and the rejected update.
  EXPECT_EQ(store.op_count() - ops, 9u);
}

TEST(StateStoreTest, WatchDeliveryIsFifoAcrossBuckets) {
  sim::Engine engine;
  StateStore store(engine);
  // One watcher per bucket (the unit and heartbeat collections and ten
  // queues): delivery must follow mutation order, not bucket or
  // registration order.
  std::vector<std::string> buckets = {"unit", "heartbeat"};
  for (int i = 0; i < 10; ++i) buckets.push_back("q." + std::to_string(i));
  // The units the queues carry exist before anyone watches.
  std::vector<UnitIndex> queued;
  for (int round = 0; round < 3; ++round) {
    queued.push_back(store.put_unit("k" + std::to_string(round), pending()));
  }
  std::vector<std::string> delivered;
  for (const std::string& bucket : buckets) {
    store.watch(bucket, "", [&delivered](const WatchEvent& e) {
      delivered.push_back(e.bucket + "/" + e.key);
    });
  }
  std::vector<std::string> expected;
  for (int round = 0; round < 3; ++round) {
    for (auto it = buckets.rbegin(); it != buckets.rend(); ++it) {
      const std::string& bucket = *it;  // deliberately non-sorted
      const std::string key = "k" + std::to_string(round);
      if (bucket == "unit") {
        store.put_unit(key, pending());
      } else if (bucket == "heartbeat") {
        store.put_heartbeat(key, HeartbeatRecord{});
      } else {
        store.queue_push(bucket, queued[static_cast<std::size_t>(round)]);
      }
      expected.push_back(bucket + "/" + key);
    }
  }
  engine.run_until(1.0);
  EXPECT_EQ(delivered, expected);
}

TEST(StateStoreTest, UnwatchIsIdempotent) {
  sim::Engine engine;
  StateStore store(engine);
  int fired = 0;
  auto h1 = store.watch("unit", "", [&fired](const WatchEvent&) { ++fired; });
  auto h2 =
      store.watch("heartbeat", "", [&fired](const WatchEvent&) { ++fired; });
  EXPECT_EQ(store.watcher_count(), 2u);
  EXPECT_TRUE(store.unwatch(h1));
  EXPECT_FALSE(store.unwatch(h1));  // double-unwatch is a no-op
  EXPECT_EQ(store.watcher_count(), 1u);
  store.put_unit("x", pending());
  store.put_heartbeat("y", HeartbeatRecord{});
  engine.run_until(1.0);
  EXPECT_EQ(fired, 1);  // only the surviving heartbeat watcher
  EXPECT_TRUE(store.unwatch(h2));
  EXPECT_EQ(store.watcher_count(), 0u);
}

/// TSan target: hammer the store from several threads, each on its own
/// keys (watcher-free, so no engine events are scheduled — the engine
/// itself is single-threaded by contract). Any missing locking shows up
/// as a data race under -fsanitize=thread.
TEST(StateStoreTest, ConcurrentMutationStress) {
  sim::Engine engine;
  StateStore store(engine);
  const int kThreads = 4, kOps = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      const std::string prefix = "stress." + std::to_string(t);
      const std::string queue = "q." + std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        const std::string id = "d" + std::to_string(i);
        const std::string pilot = prefix + ".pilot." + id;
        HeartbeatRecord beat{true, 0.0, static_cast<std::size_t>(i), 0, 0};
        store.put_heartbeat(pilot, beat);
        beat.alive = false;
        store.put_heartbeat(pilot, beat);
        ASSERT_TRUE(store.heartbeat(pilot).has_value());
        const std::string unit = prefix + "." + id;
        const UnitIndex index = store.put_unit(unit, pending());
        store.set_unit_state(index, UnitState::kAgentScheduling);
        ASSERT_EQ(store.unit_state(index), UnitState::kAgentScheduling);
        store.queue_push(queue, index);
      }
      EXPECT_EQ(store.queue_pop_all(queue).size(),
                static_cast<std::size_t>(kOps));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOps; ++i) {
      const auto beat = store.heartbeat("stress." + std::to_string(t) +
                                        ".pilot.d" + std::to_string(i));
      ASSERT_TRUE(beat.has_value());
      EXPECT_FALSE(beat->alive);
      EXPECT_EQ(beat->units_completed, static_cast<std::size_t>(i));
    }
  }
  EXPECT_EQ(store.find_all("unit").size(),
            static_cast<std::size_t>(kThreads * kOps));
}

}  // namespace
}  // namespace hoh::pilot

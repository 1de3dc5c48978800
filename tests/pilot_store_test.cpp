#include "pilot/state_store.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "pilot/agent/agent.h"
#include "pilot/descriptions.h"

namespace hoh::pilot {
namespace {

TEST(StateStoreTest, PutGetRoundTrip) {
  sim::Engine engine;
  StateStore store(engine);
  common::Json doc;
  doc["state"] = "PendingAgent";
  store.put("unit", "unit.0", doc);
  auto got = store.get("unit", "unit.0");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->at("state").as_string(), "PendingAgent");
  EXPECT_FALSE(store.get("unit", "missing").has_value());
  EXPECT_FALSE(store.get("nope", "unit.0").has_value());
}

TEST(StateStoreTest, UpdateMergesFields) {
  sim::Engine engine;
  StateStore store(engine);
  common::Json doc;
  doc["state"] = "PendingAgent";
  doc["pilot"] = "pilot.0";
  store.put("unit", "u", doc);
  store.update("unit", "u", {{"state", common::Json("AgentScheduling")}});
  auto got = store.get("unit", "u");
  EXPECT_EQ(got->at("state").as_string(), "AgentScheduling");
  EXPECT_EQ(got->at("pilot").as_string(), "pilot.0");  // untouched
}

TEST(StateStoreTest, UpdateRejectsIllegalUnitTransition) {
  sim::Engine engine;
  StateStore store(engine);
  common::Json doc;
  doc["state"] = "PendingAgent";
  store.put("unit", "u", doc);
  // PendingAgent -> Executing skips AgentScheduling: not a Fig. 3 edge.
  EXPECT_THROW(store.update("unit", "u", {{"state", common::Json("Executing")}}),
               common::StateError);
  // The rejected write must not have leaked into the document.
  EXPECT_EQ(store.get("unit", "u")->at("state").as_string(), "PendingAgent");
}

TEST(StateStoreTest, UpdateOnlyGatesUnitCollection) {
  sim::Engine engine;
  StateStore store(engine);
  common::Json doc;
  doc["state"] = "whatever";  // pilot docs carry their own state strings
  store.put("pilot", "p", doc);
  store.update("pilot", "p", {{"state", common::Json("anything")}});
  EXPECT_EQ(store.get("pilot", "p")->at("state").as_string(), "anything");
}

TEST(StateStoreTest, UpdateMissingThrows) {
  sim::Engine engine;
  StateStore store(engine);
  EXPECT_THROW(store.update("unit", "nope", {}), common::NotFoundError);
}

TEST(StateStoreTest, QueueFifoAndDrain) {
  sim::Engine engine;
  StateStore store(engine);
  store.queue_push("agent.p0", "a");
  store.queue_push("agent.p0", "b");
  EXPECT_EQ(store.queue_depth("agent.p0"), 2u);
  auto drained = store.queue_pop_all("agent.p0");
  EXPECT_EQ(drained, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(store.queue_depth("agent.p0"), 0u);
  EXPECT_TRUE(store.queue_pop_all("agent.p0").empty());
  EXPECT_TRUE(store.queue_pop_all("never-used").empty());
}

TEST(StateStoreTest, FindAllSorted) {
  sim::Engine engine;
  StateStore store(engine);
  store.put("unit", "b", common::Json(1));
  store.put("unit", "a", common::Json(2));
  auto all = store.find_all("unit");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "a");
}

TEST(StateStoreTest, OpCounting) {
  sim::Engine engine;
  StateStore store(engine);
  const auto before = store.op_count();
  store.put("c", "x", common::Json(1));
  store.get("c", "x");
  store.queue_push("q", "x");
  store.queue_pop_all("q");
  EXPECT_EQ(store.op_count(), before + 4);
}

TEST(StateStoreTest, WatchDeliveryIsFifoAcrossBuckets) {
  sim::Engine engine;
  StateStore store(engine);
  // One watcher per bucket: delivery must follow mutation order, not
  // bucket or registration order.
  std::vector<std::string> delivered;
  const int kBuckets = 12;
  for (int i = 0; i < kBuckets; ++i) {
    store.watch("b." + std::to_string(i), "",
                [&delivered](const WatchEvent& e) {
                  delivered.push_back(e.bucket + "/" + e.key);
                });
  }
  std::vector<std::string> expected;
  for (int round = 0; round < 3; ++round) {
    for (int i = kBuckets - 1; i >= 0; --i) {  // deliberately non-sorted
      const std::string bucket = "b." + std::to_string(i);
      const std::string key = "k" + std::to_string(round);
      store.put(bucket, key, common::Json());
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
  auto h1 = store.watch("alpha", "", [&fired](const WatchEvent&) { ++fired; });
  auto h2 = store.watch("beta", "", [&fired](const WatchEvent&) { ++fired; });
  EXPECT_EQ(store.watcher_count(), 2u);
  EXPECT_TRUE(store.unwatch(h1));
  EXPECT_FALSE(store.unwatch(h1));  // double-unwatch is a no-op
  EXPECT_EQ(store.watcher_count(), 1u);
  store.put("alpha", "x", common::Json());
  store.put("beta", "y", common::Json());
  engine.run_until(1.0);
  EXPECT_EQ(fired, 1);  // only the surviving beta watcher
  EXPECT_TRUE(store.unwatch(h2));
  EXPECT_EQ(store.watcher_count(), 0u);
}

/// TSan target: hammer the store from several threads, each on its own
/// buckets (watcher-free, so no engine events are scheduled — the engine
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
      const std::string coll = "stress." + std::to_string(t);
      const std::string queue = "q." + std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        const std::string id = "d" + std::to_string(i);
        common::Json doc;
        doc["n"] = static_cast<std::int64_t>(i);
        store.put(coll, id, doc);
        store.update(coll, id, {{"m", common::Json("y")}});
        ASSERT_TRUE(store.get(coll, id).has_value());
        store.queue_push(queue, id);
      }
      EXPECT_EQ(store.queue_pop_all(queue).size(),
                static_cast<std::size_t>(kOps));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(store.find_all("stress." + std::to_string(t)).size(),
              static_cast<std::size_t>(kOps));
  }
}

TEST(UnitJsonTest, RoundTrip) {
  ComputeUnitDescription desc;
  desc.name = "kmeans-map-3";
  desc.executable = "/bin/python";
  desc.arguments = {"kmeans.py", "--iter", "2"};
  desc.cores = 4;
  desc.memory_mb = 3072;
  desc.duration = 123.5;
  desc.is_mpi = true;
  desc.input_staging = {
      StagedFile{saga::Url("file://stampede/points.csv"), 1024}};
  desc.output_staging = {
      StagedFile{saga::Url("file://stampede/out.csv"), 64}};
  desc.preferred_nodes = {"n1", "n2"};

  const ComputeUnitDescription back = unit_from_json(unit_to_json(desc));
  EXPECT_EQ(back.name, desc.name);
  EXPECT_EQ(back.executable, desc.executable);
  EXPECT_EQ(back.arguments, desc.arguments);
  EXPECT_EQ(back.cores, desc.cores);
  EXPECT_EQ(back.memory_mb, desc.memory_mb);
  EXPECT_DOUBLE_EQ(back.duration, desc.duration);
  EXPECT_EQ(back.is_mpi, desc.is_mpi);
  ASSERT_EQ(back.input_staging.size(), 1u);
  EXPECT_EQ(back.input_staging[0].url.str(), "file://stampede/points.csv");
  EXPECT_EQ(back.input_staging[0].size, 1024);
  ASSERT_EQ(back.output_staging.size(), 1u);
  EXPECT_EQ(back.preferred_nodes, desc.preferred_nodes);
}

TEST(UnitJsonTest, SerializedThroughTextParser) {
  // The document survives an actual JSON text round trip (what a real
  // MongoDB wire encoding would do).
  ComputeUnitDescription desc;
  desc.name = "quoted \"name\" with\nnewline";
  desc.duration = 0.25;
  const auto text = unit_to_json(desc).dump();
  const auto back = unit_from_json(common::Json::parse(text));
  EXPECT_EQ(back.name, desc.name);
  EXPECT_DOUBLE_EQ(back.duration, 0.25);
}

}  // namespace
}  // namespace hoh::pilot

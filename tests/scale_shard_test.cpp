#include "pilot/state_store.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analytics/experiment_config.h"
#include "analytics/kmeans_experiment.h"
#include "common/error.h"

/// Sharded state store (DESIGN.md §13): the shard count is a pure
/// performance knob — operations, watch delivery order and experiment
/// digests must be indistinguishable from the single-lock store.

namespace hoh::pilot {
namespace {

TEST(ScaleShardTest, OpsAcrossShardsMatchSingleLockSemantics) {
  sim::Engine engine;
  StateStore store(engine);
  store.set_shard_count(8);
  EXPECT_EQ(store.shard_count(), 8u);
  // Many buckets so several shards are actually populated.
  for (int i = 0; i < 32; ++i) {
    const std::string coll = "coll." + std::to_string(i);
    common::Json doc;
    doc["v"] = static_cast<std::int64_t>(i);
    store.put(coll, "a", doc);
    store.put(coll, "b", doc);
    store.update(coll, "a", {{"w", common::Json("x")}});
    store.queue_push("q." + std::to_string(i), "e1");
    store.queue_push("q." + std::to_string(i), "e2");
  }
  for (int i = 0; i < 32; ++i) {
    const std::string coll = "coll." + std::to_string(i);
    auto got = store.get(coll, "a");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->at("v").as_int(), i);
    EXPECT_EQ(got->at("w").as_string(), "x");
    EXPECT_EQ(store.find_all(coll).size(), 2u);
    EXPECT_EQ(store.queue_pop_all("q." + std::to_string(i)),
              (std::vector<std::string>{"e1", "e2"}));
  }
  // op_count aggregates across shards.
  EXPECT_GT(store.op_count(), 0u);
}

TEST(ScaleShardTest, ShardCountValidation) {
  sim::Engine engine;
  StateStore store(engine);
  EXPECT_THROW(store.set_shard_count(0), common::ConfigError);
  EXPECT_THROW(store.set_shard_count(StateStore::kMaxShards + 1),
               common::ConfigError);
  store.set_shard_count(4);  // still empty: re-sharding is legal
  store.put("c", "id", common::Json());
  EXPECT_THROW(store.set_shard_count(8), common::StateError);
}

TEST(ScaleShardTest, CrossShardWatchDeliveryIsGlobalFifo) {
  sim::Engine engine;
  StateStore store(engine);
  store.set_shard_count(16);
  // One watcher per bucket; the buckets hash to different shards, but
  // delivery must follow global mutation order, not shard order.
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

TEST(ScaleShardTest, UnwatchAcrossShards) {
  sim::Engine engine;
  StateStore store(engine);
  store.set_shard_count(8);
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

/// TSan target: hammer the sharded store from several threads, each on
/// its own buckets (watcher-free, so no engine events are scheduled —
/// the engine itself is single-threaded by contract). Any missing shard
/// locking shows up as a data race under -fsanitize=thread.
TEST(ScaleShardTest, ConcurrentMutationStress) {
  sim::Engine engine;
  StateStore store(engine);
  store.set_shard_count(8);
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

/// End-to-end digest parity: a faulty, recovering cell must reproduce
/// the single-lock digest at any shard count, across injection seeds —
/// the same invariant the CI fault-sweep matrix checks per seed.
TEST(ScaleShardTest, FaultSweepDigestParityAcrossShardCounts) {
  auto cell = [](std::uint64_t seed, int shards) {
    analytics::KmeansExperimentConfig cfg;
    cfg.machine = cluster::stampede_profile();
    cfg.scenario = analytics::scenario_10k_points();
    cfg.scenario.iterations = 2;
    cfg.nodes = 3;
    cfg.tasks = 16;
    cfg.failures = true;
    cfg.failure_plan.seed = seed;
    cfg.failure_plan.mean_time_to_crash = 600;
    cfg.failure_plan.mean_time_to_repair = 300;
    cfg.failure_plan.max_crashes = 1;
    cfg.failure_plan.start_after = 120;
    cfg.recovery = true;
    cfg.retry_policy.max_attempts = 3;
    cfg.retry_policy.base_backoff = 5;
    cfg.store_shards = shards;
    return analytics::run_kmeans_experiment(cfg);
  };
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull,
                             9ull, 10ull}) {
    const auto single = cell(seed, 1);
    const auto sharded = cell(seed, 8);
    ASSERT_TRUE(single.ok) << "seed " << seed;
    ASSERT_TRUE(sharded.ok) << "seed " << seed;
    EXPECT_EQ(single.output_checksum, sharded.output_checksum)
        << "seed " << seed;
    EXPECT_EQ(single.units_completed, sharded.units_completed)
        << "seed " << seed;
  }
}

/// Strict plan parsing (hohsim --strict): an unknown key is a hard
/// ConfigError instead of a warning.
TEST(ScaleShardTest, StrictPlanParsingRejectsUnknownKeys) {
  const char* plan = R"({"experiments": [
      {"machine": "generic", "nodes": 1, "tasks": 2, "stack": "rp",
       "scenario": "10k", "store_shardz": 4}]})";
  const auto doc = common::Json::parse(plan);
  EXPECT_NO_THROW(analytics::experiment_plan_from_json(doc));
  analytics::set_strict_plan_parsing(true);
  EXPECT_THROW(analytics::experiment_plan_from_json(doc),
               common::ConfigError);
  analytics::set_strict_plan_parsing(false);
  // Correctly-spelled scale knobs parse in strict mode.
  const char* good = R"({"experiments": [
      {"machine": "generic", "nodes": 1, "tasks": 2, "stack": "rp",
       "scenario": "10k", "store_shards": 4, "spawn_latency": 0.01,
       "trace_rollup": true, "pilot_runtime": 1209600}]})";
  analytics::set_strict_plan_parsing(true);
  const auto cfgs =
      analytics::experiment_plan_from_json(common::Json::parse(good));
  analytics::set_strict_plan_parsing(false);
  ASSERT_EQ(cfgs.size(), 1u);
  EXPECT_EQ(cfgs[0].store_shards, 4);
  EXPECT_DOUBLE_EQ(cfgs[0].spawn_latency, 0.01);
  EXPECT_TRUE(cfgs[0].trace_rollup);
  EXPECT_DOUBLE_EQ(cfgs[0].pilot_runtime, 1209600.0);
}

}  // namespace
}  // namespace hoh::pilot

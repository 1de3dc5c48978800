/// Control-plane tests (DESIGN.md §10): the StateStore watch API,
/// event-driven wakeups across the agent / unit-manager / YARN / elastic
/// layers, fault-free output-digest parity on the keystone scenarios,
/// and the teardown paths of everything that arms timers.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analytics/kmeans_experiment.h"
#include "common/error.h"
#include "elastic/elastic_controller.h"
#include "elastic/policy.h"
#include "hpc/batch_scheduler.h"
#include "mapreduce/yarn_mr_driver.h"
#include "pilot/pilot_manager.h"
#include "pilot/state_store.h"
#include "pilot/unit_manager.h"
#include "sim/engine.h"
#include "yarn/resource_manager.h"

namespace hoh {
namespace {

// ---------------------------------------------- StateStore watch API ---

class StoreWatchTest : public ::testing::Test {
 protected:
  pilot::UnitRecord unit(
      pilot::UnitState state = pilot::UnitState::kPendingAgent) {
    pilot::UnitRecord u;
    u.state = state;
    return u;
  }

  sim::Engine engine_;
  pilot::StateStore store_{engine_};
};

TEST_F(StoreWatchTest, WatchBeforePutDelivers) {
  std::vector<pilot::WatchEvent> events;
  store_.watch("unit", "", [&](const pilot::WatchEvent& e) {
    events.push_back(e);
  });
  store_.put_unit("unit.0", unit());
  EXPECT_TRUE(events.empty());  // delivery is an engine event, not inline
  engine_.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, pilot::WatchEventType::kPut);
  EXPECT_EQ(events[0].bucket, "unit");
  EXPECT_EQ(events[0].key, "unit.0");
}

TEST_F(StoreWatchTest, MutationBeforeWatchIsNotDelivered) {
  store_.put_unit("unit.0", unit());
  engine_.run();
  int events = 0;
  store_.watch("unit", "", [&](const pilot::WatchEvent&) { ++events; });
  engine_.run();
  EXPECT_EQ(events, 0);  // watches see subsequent mutations only
}

TEST_F(StoreWatchTest, BucketAndPrefixFilterDelivery) {
  std::vector<std::string> keys;
  store_.watch("unit", "unit.1", [&](const pilot::WatchEvent& e) {
    keys.push_back(e.key);
  });
  store_.put_unit("unit.0", unit());
  store_.put_unit("unit.1", unit());
  store_.put_unit("unit.10", unit());  // prefix match, also delivered
  store_.put_heartbeat("unit.1", pilot::HeartbeatRecord{});  // wrong bucket
  engine_.run();
  EXPECT_EQ(keys, (std::vector<std::string>{"unit.1", "unit.10"}));
}

TEST_F(StoreWatchTest, UpdateAndQueuePushCarryTheirEventTypes) {
  std::vector<pilot::WatchEventType> types;
  std::vector<std::string> buckets;
  auto record = [&](const pilot::WatchEvent& e) {
    types.push_back(e.type);
    buckets.push_back(e.bucket);
  };
  store_.watch("unit", "", record);
  store_.watch("agent.p1", "", record);
  const pilot::UnitIndex u = store_.put_unit("u", unit());
  store_.set_unit_state(u, pilot::UnitState::kAgentScheduling);
  store_.queue_push("agent.p1", u);
  engine_.run();
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], pilot::WatchEventType::kPut);
  EXPECT_EQ(types[1], pilot::WatchEventType::kUpdate);
  EXPECT_EQ(types[2], pilot::WatchEventType::kQueuePush);
  EXPECT_EQ(buckets[2], "agent.p1");
}

TEST_F(StoreWatchTest, GateRejectedUpdateDoesNotNotify) {
  const pilot::UnitIndex u =
      store_.put_unit("u", unit(pilot::UnitState::kPendingAgent));
  engine_.run();
  int events = 0;
  store_.watch("unit", "", [&](const pilot::WatchEvent&) { ++events; });
  // PendingAgent -> Executing is not a Fig. 3 edge: the write is rejected
  // and watchers must not hear about it.
  EXPECT_THROW(store_.set_unit_state(u, pilot::UnitState::kExecuting),
               common::StateError);
  engine_.run();
  EXPECT_EQ(events, 0);
}

TEST_F(StoreWatchTest, UnwatchStopsDeliveryAndCountsWatchers) {
  int events = 0;
  pilot::WatchHandle h = store_.watch(
      "unit", "", [&](const pilot::WatchEvent&) { ++events; });
  EXPECT_EQ(store_.watcher_count(), 1u);
  EXPECT_TRUE(store_.unwatch(h));
  EXPECT_FALSE(store_.unwatch(h));  // already gone
  EXPECT_EQ(store_.watcher_count(), 0u);
  store_.put_unit("u", unit());
  engine_.run();
  EXPECT_EQ(events, 0);
}

TEST_F(StoreWatchTest, UnwatchDuringDeliveryIsSafe) {
  int second_fired = 0;
  pilot::WatchHandle second;
  store_.watch("unit", "", [&](const pilot::WatchEvent&) {
    // First watcher retires the second mid-delivery: the second must not
    // fire for this (or any later) mutation.
    store_.unwatch(second);
  });
  second = store_.watch("unit", "",
                        [&](const pilot::WatchEvent&) { ++second_fired; });
  store_.put_unit("u", unit());
  engine_.run();
  EXPECT_EQ(second_fired, 0);
  EXPECT_EQ(store_.watcher_count(), 1u);
}

TEST_F(StoreWatchTest, CallbackMayUnwatchItselfAndASibling) {
  // Callbacks run in place, not on a copy of their std::function: a
  // callback retiring itself must not destroy the closure it is running
  // in. The captured string is big enough to live on the heap, so a
  // closure freed early shows up as a use-after-free under ASan.
  const std::string tag(64, 'x');
  std::vector<std::string> fired;
  pilot::WatchHandle self;
  pilot::WatchHandle sibling;
  self = store_.watch("unit", "", [&, tag](const pilot::WatchEvent& e) {
    store_.unwatch(self);
    store_.unwatch(sibling);
    fired.push_back(tag.substr(0, 1) + e.key);  // reads the closure
  });
  sibling = store_.watch("unit", "", [&, tag](const pilot::WatchEvent& e) {
    fired.push_back(tag.substr(0, 2) + e.key);
  });
  int later = 0;
  store_.watch("unit", "", [&](const pilot::WatchEvent&) { ++later; });
  // Two mutations in one tick: both watchers are gone before the second
  // is delivered, and the third watcher hears both.
  store_.put_unit("u", unit());
  store_.put_unit("v", unit());
  engine_.run();
  EXPECT_EQ(fired, std::vector<std::string>{"xu"});
  EXPECT_EQ(later, 2);
  EXPECT_EQ(store_.watcher_count(), 1u);
  EXPECT_FALSE(store_.unwatch(self));
  EXPECT_FALSE(store_.unwatch(sibling));
  // The store keeps delivering after the retirements.
  store_.put_unit("w", unit());
  engine_.run();
  EXPECT_EQ(later, 3);
}

TEST_F(StoreWatchTest, UnwatchInsideABatchedRunStopsTheRestOfIt) {
  // Over a transport, consecutive deliveries to one watcher cross as one
  // WatchNotify run. The store.notify endpoint re-resolves the watcher
  // for every key, so a callback that retires itself and a sibling on
  // the first key of its run hears no further key, and the sibling's
  // own run delivers nothing.
  net::InProcessTransport transport;
  store_.set_transport(&transport);
  std::vector<std::string> fired;
  pilot::WatchHandle self;
  pilot::WatchHandle sibling;
  self = store_.watch("unit", "a", [&](const pilot::WatchEvent& e) {
    store_.unwatch(self);
    store_.unwatch(sibling);
    fired.push_back("self:" + e.key);
  });
  sibling = store_.watch("unit", "b", [&](const pilot::WatchEvent& e) {
    fired.push_back("sibling:" + e.key);
  });
  for (const char* id : {"a1", "a2", "a3", "b1", "b2"}) {
    store_.put_unit(id, unit());
  }
  engine_.run();
  EXPECT_EQ(fired, std::vector<std::string>{"self:a1"});
  EXPECT_EQ(transport.stats().sends, 2u);  // one run per watcher
  EXPECT_EQ(store_.watcher_count(), 0u);

  // A later watcher still hears a run in full.
  std::vector<std::string> later;
  store_.watch("unit", "", [&](const pilot::WatchEvent& e) {
    later.push_back(e.key);
  });
  for (const char* id : {"c1", "c2", "c3"}) store_.put_unit(id, unit());
  engine_.run();
  EXPECT_EQ(later, (std::vector<std::string>{"c1", "c2", "c3"}));
  EXPECT_EQ(transport.stats().sends, 3u);
  store_.set_transport(nullptr);
}

TEST_F(StoreWatchTest, MultipleWatchersFireInRegistrationOrder) {
  std::vector<int> order;
  store_.watch("unit", "", [&](const pilot::WatchEvent&) {
    order.push_back(1);
  });
  store_.watch("unit", "", [&](const pilot::WatchEvent&) {
    order.push_back(2);
  });
  store_.watch("unit", "", [&](const pilot::WatchEvent&) {
    order.push_back(3);
  });
  store_.put_unit("u", unit());
  store_.put_unit("v", unit());
  engine_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 1, 2, 3}));
}

TEST_F(StoreWatchTest, CallbackMayMutateTheStore) {
  int unit_events = 0;
  store_.watch("unit", "", [&](const pilot::WatchEvent& e) {
    ++unit_events;
    if (e.type == pilot::WatchEventType::kPut) {
      // Notification chain: a watcher reacting with its own write must
      // not deadlock (callbacks never run under the store mutex).
      store_.set_unit_state(*store_.unit_index(e.key),
                            pilot::UnitState::kAgentScheduling);
    }
  });
  const pilot::UnitIndex u = store_.put_unit("u", unit());
  engine_.run();
  EXPECT_EQ(unit_events, 2);  // the put and the chained update
  EXPECT_EQ(store_.unit_state(u), pilot::UnitState::kAgentScheduling);
}

// --------------------------------------------------------- pilot stack ---

class WatchStackTest : public ::testing::Test {
 protected:
  WatchStackTest() {
    session_.register_machine(cluster::stampede_profile(),
                              hpc::SchedulerKind::kSlurm, 4);
  }

  pilot::PilotDescription plain_pilot(int nodes = 1) {
    pilot::PilotDescription pd;
    pd.resource = "slurm://stampede/";
    pd.nodes = nodes;
    pd.runtime = 14400.0;
    return pd;
  }

  pilot::ComputeUnitDescription simple_unit(common::Seconds duration = 5.0) {
    pilot::ComputeUnitDescription cud;
    cud.duration = duration;
    cud.cores = 1;
    cud.memory_mb = 1024;
    return cud;
  }

  hpc::BatchScheduler& scheduler() {
    return *session_.saga().resource("stampede").scheduler;
  }

  void run_for(double seconds) {
    session_.engine().run_until(session_.engine().now() + seconds);
  }

  void run_until_active(const std::shared_ptr<pilot::Pilot>& pilot) {
    while (pilot->state() != pilot::PilotState::kActive &&
           session_.engine().now() < 3600.0) {
      run_for(5.0);
    }
    ASSERT_EQ(pilot->state(), pilot::PilotState::kActive);
  }

  pilot::Session session_;
};

TEST_F(WatchStackTest, UnitsExecuteInWatchMode) {
  pilot::PilotManager pm(session_);
  pilot::UnitManager um(session_);
  auto pilot = pm.submit_pilot(plain_pilot());
  um.add_pilot(pilot);
  // Two waves: 16 cores per Stampede node, 32 units — exercises the
  // finish_unit -> schedule_queued path without any agent store poll.
  auto units = um.submit(
      std::vector<pilot::ComputeUnitDescription>(32, simple_unit(20.0)));
  session_.engine().run_until(1800.0);
  EXPECT_TRUE(um.all_done());
  EXPECT_EQ(um.done_count(), 32u);
  for (const auto& u : units) {
    EXPECT_EQ(u->state(), pilot::UnitState::kDone);
  }
}

TEST_F(WatchStackTest, DependencyChainResolvesViaStoreWatch) {
  pilot::PilotManager pm(session_);
  pilot::UnitManager um(session_);
  auto pilot = pm.submit_pilot(plain_pilot());
  um.add_pilot(pilot);
  auto first = um.submit(simple_unit(10.0));
  pilot::ComputeUnitDescription dependent = simple_unit(5.0);
  dependent.depends_on = {first->id()};
  auto second = um.submit(dependent);
  session_.engine().run_until(600.0);
  EXPECT_EQ(first->state(), pilot::UnitState::kDone);
  EXPECT_EQ(second->state(), pilot::UnitState::kDone);
  // The dependency watch retired itself once nothing was held.
  EXPECT_TRUE(um.all_done());
}

TEST_F(WatchStackTest, HeartbeatLeaseExpiresForSilentPilot) {
  pilot::PilotManager pm(session_);
  pilot::AgentConfig cfg;
  cfg.heartbeat_interval = 10.0;
  // Occupy the whole 4-node pool so the second pilot queues forever and
  // its agent never gets to write a heartbeat.
  auto runner = pm.submit_pilot(plain_pilot(4), cfg);
  auto queued = pm.submit_pilot(plain_pilot(4), cfg);
  run_until_active(runner);
  ASSERT_NE(queued->state(), pilot::PilotState::kActive);
  // A heartbeat appears (say, a half-started bootstrap) and then goes
  // silent: the observer's lease must expire after the grace window.
  pilot::HeartbeatRecord hb;
  hb.alive = true;
  session_.store().put_heartbeat(queued->id(), hb);
  EXPECT_EQ(pm.heartbeat_lease_expirations(), 0u);
  run_for(40.0);  // grace = 3 x 10 s
  EXPECT_EQ(pm.heartbeat_lease_expirations(), 1u);
  EXPECT_FALSE(
      session_.trace().find("pilot", "heartbeat_lease_expired").empty());
}

TEST_F(WatchStackTest, TombstoneRetiresHeartbeatLease) {
  pilot::PilotManager pm(session_);
  pilot::AgentConfig cfg;
  cfg.heartbeat_interval = 10.0;
  auto pilot = pm.submit_pilot(plain_pilot(), cfg);
  run_until_active(pilot);
  pilot->cancel();  // agent stop writes the alive=false tombstone
  run_for(120.0);   // far past the grace window
  EXPECT_EQ(pm.heartbeat_lease_expirations(), 0u);
}

TEST_F(WatchStackTest, RecoveryResubmitsAndWatchPlaneFollows) {
  pilot::PilotManager pm(session_);
  pilot::UnitManager um(session_);
  common::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = 5.0;
  policy.max_backoff = 30.0;
  policy.jitter = 0.0;
  std::shared_ptr<pilot::Pilot> replacement;
  pm.enable_recovery(policy,
                     [&](const std::shared_ptr<pilot::Pilot>& fresh,
                         const std::shared_ptr<pilot::Pilot>&) {
                       replacement = fresh;
                       um.add_pilot(fresh);
                     });
  um.enable_recovery(policy);
  auto pilot = pm.submit_pilot(plain_pilot());
  um.add_pilot(pilot);
  auto units = um.submit(
      std::vector<pilot::ComputeUnitDescription>(8, simple_unit(120.0)));
  run_until_active(pilot);
  run_for(30.0);  // units executing
  scheduler().fail_node(
      pilot->agent()->allocation().node_names().front());
  EXPECT_EQ(pilot->state(), pilot::PilotState::kFailed);
  session_.engine().run_until(7200.0);
  // The replacement picked the requeued units up.
  ASSERT_NE(replacement, nullptr);
  EXPECT_EQ(pm.pilots_resubmitted(), 1u);
  EXPECT_TRUE(um.all_done());
  EXPECT_EQ(um.done_count(), 8u);
}

// ----------------------------------------------------- teardown paths ---

TEST_F(WatchStackTest, UnitManagerDestructionRetiresDependencySweep) {
  pilot::PilotManager pm(session_);
  std::size_t watchers_with_um = 0;
  {
    pilot::UnitManager um(session_);
    auto pilot = pm.submit_pilot(plain_pilot());
    um.add_pilot(pilot);
    auto first = um.submit(simple_unit(3600.0));  // never done in time
    pilot::ComputeUnitDescription dependent = simple_unit(5.0);
    dependent.depends_on = {first->id()};
    um.submit(dependent);  // held: registers the dependency watch
    run_for(60.0);
    watchers_with_um = session_.store().watcher_count();
  }
  // The manager is gone while its dependency watch was still armed; the
  // engine and store must stay usable without touching freed state, and
  // exactly the manager's own dependency watch must have retired (the
  // agent's queue watch and the heartbeat lease remain).
  run_for(120.0);
  pilot::UnitRecord poke;
  poke.state = pilot::UnitState::kPendingAgent;
  session_.store().put_unit("poke", poke);
  run_for(5.0);
  EXPECT_EQ(session_.store().watcher_count(), watchers_with_um - 1);
}

TEST_F(WatchStackTest, PilotCancelTwiceIsIdempotent) {
  pilot::PilotManager pm(session_);
  auto pilot = pm.submit_pilot(plain_pilot());
  run_until_active(pilot);
  pilot->cancel();
  pilot->cancel();
  run_for(120.0);
  EXPECT_TRUE(pilot::is_final(pilot->state()));
}

// ------------------------------------------------- YARN control plane ---

class YarnWatchTest : public ::testing::Test {
 protected:
  YarnWatchTest() : machine_(cluster::generic_profile(3, 8, 16 * 1024)) {
    std::vector<std::shared_ptr<cluster::Node>> nodes;
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(std::make_shared<cluster::Node>(
          "n" + std::to_string(i), machine_.node));
    }
    allocation_ = cluster::Allocation(nodes);
  }

  sim::Engine engine_;
  cluster::MachineProfile machine_;
  cluster::Allocation allocation_;
};

TEST_F(YarnWatchTest, MrJobCompletesWithDemandDrivenScheduler) {
  yarn::ResourceManager rm(engine_, allocation_);
  mapreduce::YarnMrDriver driver(rm);
  bool finished = false;
  mapreduce::YarnMrJobSpec spec;
  spec.map_tasks = 8;
  spec.reduce_tasks = 2;
  const auto app_id = driver.submit(spec, [&] { finished = true; });
  // The RM has no periodic scheduler, so the engine drains on its own —
  // run() terminating is itself part of the assertion.
  engine_.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(driver.status(app_id).maps_done, 8);
  EXPECT_EQ(rm.application(app_id).state, yarn::AppState::kFinished);
  rm.shutdown();
}

TEST_F(YarnWatchTest, SilentNmCrashDetectedByLeaseAtExactTimeout) {
  yarn::YarnConfig cfg;
  cfg.nm_liveness_timeout = 30.0;
  yarn::ResourceManager rm(engine_, allocation_, cfg);
  sim::Trace trace;
  rm.set_trace(&trace);
  engine_.run_until(10.0);
  rm.node_manager("n1").crash();  // silent: no fail_node call
  engine_.run_until(200.0);
  EXPECT_EQ(rm.live_node_count(), 2u);
  const auto lost = trace.find("yarn", "nm_lost");
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost.front().attrs.at("node"), "n1");
  // The lease fires at exactly crash + timeout — no scan-cadence slack.
  EXPECT_NEAR(lost.front().time, 40.0, 1e-9);
  rm.shutdown();
}

TEST_F(YarnWatchTest, OnFinishedFiresExactlyOnceWithFinalReport) {
  yarn::ResourceManager rm(engine_, allocation_);
  int calls = 0;
  yarn::AppReport last;
  yarn::AppDescriptor app;
  app.on_am_start = [](yarn::ApplicationMaster& am) {
    am.unregister(true);
  };
  app.on_finished = [&](const yarn::AppReport& report) {
    ++calls;
    last = report;
  };
  const auto app_id = rm.submit_application(std::move(app));
  engine_.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(last.id, app_id);
  EXPECT_EQ(last.state, yarn::AppState::kFinished);
  rm.shutdown();
  EXPECT_EQ(calls, 1);  // shutdown must not re-fire a finished app
}

TEST_F(YarnWatchTest, RmSideFailureIsPushedIntoMrDriver) {
  yarn::ResourceManager rm(engine_, allocation_);
  mapreduce::YarnMrDriver driver(rm);
  mapreduce::YarnMrJobSpec spec;
  spec.map_tasks = 4;
  spec.map_task_seconds = 600.0;
  const auto app_id = driver.submit(spec);
  engine_.run_until(120.0);  // maps running
  rm.kill_application(app_id);
  EXPECT_TRUE(driver.status(app_id).failed);
  rm.shutdown();
}

// -------------------------------------------------- elastic event path ---

TEST_F(WatchStackTest, ElasticEventTickReactsBeforeFirstSample) {
  pilot::PilotManager pm(session_);
  pilot::UnitManager um(session_);
  auto pilot = pm.submit_pilot(plain_pilot());
  um.add_pilot(pilot);
  run_until_active(pilot);

  elastic::ElasticPolicySpec policy;
  policy.name = "backlog";
  elastic::ElasticControllerConfig cfg;
  cfg.sample_interval = 100000.0;  // the periodic never fires in this test
  cfg.min_nodes = 1;
  cfg.max_nodes = 2;
  elastic::ElasticController controller(pm, pilot,
                                        elastic::make_policy(policy), cfg,
                                        um.estimator_ptr());
  controller.start();
  const double t0 = session_.engine().now();
  um.submit(std::vector<pilot::ComputeUnitDescription>(
      64, simple_unit(300.0)));  // a backlog spike
  run_for(60.0);
  ASSERT_LT(session_.engine().now(), t0 + cfg.sample_interval);
  const auto counters = controller.counters();
  EXPECT_GE(counters.event_ticks, 1u);
  EXPECT_GE(counters.samples, 1u);  // the event tick took a sample
  controller.stop();
  controller.stop();  // idempotent
  controller.start();
  controller.stop();
}

// ------------------------------------- keystone digest parity (10 seeds) ---

class ControlPlaneParityTest : public ::testing::Test {
 protected:
  static analytics::KmeansExperimentConfig base_config() {
    analytics::KmeansExperimentConfig cfg;
    cfg.machine = cluster::stampede_profile();
    cfg.scheduler = hpc::SchedulerKind::kSlurm;
    cfg.scenario = analytics::scenario_100k_points();
    cfg.nodes = 8;
    cfg.tasks = 16;
    cfg.yarn_stack = false;
    return cfg;
  }

  /// The fault-recovery keystone cell (plans/fault_recovery.json shape).
  static analytics::KmeansExperimentConfig faulty_config(std::uint64_t seed) {
    auto cfg = base_config();
    cfg.failures = true;
    cfg.failure_plan.seed = seed;
    cfg.failure_plan.mean_time_to_crash = 200.0;
    cfg.failure_plan.mean_time_to_repair = 300.0;
    cfg.failure_plan.max_crashes = 1;
    cfg.failure_plan.start_after = 300.0;
    cfg.recovery = true;
    cfg.retry_policy.max_attempts = 3;
    cfg.retry_policy.base_backoff = 5.0;
    cfg.retry_policy.max_backoff = 60.0;
    return cfg;
  }

  /// The elasticity keystone cell (plans/elastic_keystone.json shape):
  /// backlog-driven growth under the same seeded fault plan.
  static analytics::KmeansExperimentConfig elastic_config(std::uint64_t seed) {
    auto cfg = faulty_config(seed);
    cfg.nodes = 4;
    cfg.elastic = true;
    cfg.elastic_policy.name = "backlog";
    cfg.elastic_config.min_nodes = 4;
    cfg.elastic_config.max_nodes = 8;
    cfg.elastic_config.sample_interval = 30.0;
    return cfg;
  }

  /// The same cell without failures or recovery: every recovered run
  /// must complete exactly this unit set.
  static analytics::KmeansExperimentConfig fault_free(
      analytics::KmeansExperimentConfig cfg) {
    cfg.failures = false;
    cfg.recovery = false;
    return cfg;
  }
};

TEST_F(ControlPlaneParityTest, FaultRecoveryDigestIdenticalInAllTenSeeds) {
  const auto reference =
      analytics::run_kmeans_experiment(fault_free(faulty_config(1)));
  ASSERT_TRUE(reference.ok);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run = analytics::run_kmeans_experiment(faulty_config(seed));
    EXPECT_TRUE(run.ok) << "seed " << seed;
    EXPECT_EQ(run.output_checksum, reference.output_checksum)
        << "seed " << seed;
  }
}

TEST_F(ControlPlaneParityTest, ElasticKeystoneDigestIdenticalInAllTenSeeds) {
  const auto reference =
      analytics::run_kmeans_experiment(fault_free(elastic_config(1)));
  ASSERT_TRUE(reference.ok);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run = analytics::run_kmeans_experiment(elastic_config(seed));
    EXPECT_TRUE(run.ok) << "seed " << seed;
    EXPECT_EQ(run.output_checksum, reference.output_checksum)
        << "seed " << seed;
  }
}

TEST_F(ControlPlaneParityTest, WatchModeCutsEventCountOnIdleHeavyCell) {
  // RP-YARN on long tasks: an idle-heavy cell. The removed periodic
  // plane executed 9983 engine events here; the event-driven plane must
  // stay within a tenth of that.
  analytics::KmeansExperimentConfig cfg;
  cfg.machine = cluster::stampede_profile();
  cfg.scheduler = hpc::SchedulerKind::kSlurm;
  cfg.scenario = analytics::scenario_1m_points();
  cfg.nodes = 3;
  cfg.tasks = 4;
  cfg.yarn_stack = true;
  const auto run = analytics::run_kmeans_experiment(cfg);
  ASSERT_TRUE(run.ok);
  EXPECT_LE(run.engine_events, 998u) << "events " << run.engine_events;
}

}  // namespace
}  // namespace hoh

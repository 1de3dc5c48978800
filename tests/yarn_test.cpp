#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>

#include "common/error.h"
#include "net/message.h"
#include "net/transport.h"
#include "yarn/application_master.h"
#include "yarn/resource_manager.h"
#include "yarn/yarn_cluster.h"

namespace hoh::yarn {
namespace {

/// Builds a 3-node allocation on a generic profile.
class YarnTest : public ::testing::Test {
 protected:
  YarnTest() : machine_(cluster::generic_profile(3, 8, 16 * 1024)) {
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

TEST_F(YarnTest, NormalizeRoundsToMinimum) {
  YarnConfig cfg;
  cfg.minimum_allocation = {1024, 1};
  cfg.maximum_allocation = {8192, 8};
  EXPECT_EQ(cfg.normalize({100, 1}).memory_mb, 1024);
  EXPECT_EQ(cfg.normalize({1500, 1}).memory_mb, 2048);
  EXPECT_EQ(cfg.normalize({100000, 20}).memory_mb, 8192);
  EXPECT_EQ(cfg.normalize({100000, 20}).vcores, 8);
}

TEST_F(YarnTest, NodeManagerCapacityDefaults) {
  YarnConfig cfg;
  NodeManager nm(engine_, cfg, allocation_.nodes()[0]);
  EXPECT_EQ(nm.capacity().vcores, 8);
  EXPECT_EQ(nm.capacity().memory_mb, 16 * 1024 * 7 / 8);
}

TEST_F(YarnTest, AmLifecycleTwoStageAllocation) {
  ResourceManager rm(engine_, allocation_);
  double am_started_at = -1.0;
  AppDescriptor app;
  app.name = "radical-yarn-app";
  app.on_am_start = [&](ApplicationMaster& am) {
    am_started_at = engine_.now();
    am.unregister(true);
  };
  const auto app_id = rm.submit_application(std::move(app));
  EXPECT_EQ(rm.application(app_id).state, AppState::kSubmitted);
  EXPECT_EQ(rm.application(app_id).name, "radical-yarn-app");
  engine_.run_until(60.0);
  EXPECT_EQ(rm.application(app_id).state, AppState::kFinished);
  // `yarn application -list` sees the one application, finished.
  const auto apps = rm.applications();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps.front().id, app_id);
  EXPECT_EQ(apps.front().state, AppState::kFinished);
  // AM start pays: scheduler pass + AM launch + registration.
  EXPECT_GE(am_started_at, rm.config().am_launch_time +
                               rm.config().am_register_time);
  rm.shutdown();
}

TEST_F(YarnTest, FullTaskContainerFlow) {
  ResourceManager rm(engine_, allocation_);
  double task_running_at = -1.0;
  std::string task_node;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {2048, 1};
    am.request_containers(1, req, [&](const Container& c) {
      task_node = c.node;
      am.launch(c.id, [&, id = c.id] {
        task_running_at = engine_.now();
        am.complete_container(id);
        am.unregister(true);
      });
    });
  };
  const auto app_id = rm.submit_application(std::move(app));
  engine_.run_until(120.0);
  EXPECT_EQ(rm.application(app_id).state, AppState::kFinished);
  EXPECT_GT(task_running_at, 0.0);
  EXPECT_FALSE(task_node.empty());
  // Everything released.
  EXPECT_EQ(rm.total_allocated().memory_mb, 0);
  EXPECT_EQ(rm.total_allocated().vcores, 0);
  rm.shutdown();
}

TEST_F(YarnTest, CuStartupOverheadIsTensOfSeconds) {
  // The Fig. 5 inset claim: a YARN-executed Compute-Unit pays the
  // two-stage AM + container allocation, far more than a fork.
  ResourceManager rm(engine_, allocation_);
  double payload_at = -1.0;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    am.request_containers(1, req, [&](const Container& c) {
      am.launch(c.id, [&] { payload_at = engine_.now(); });
    });
  };
  rm.submit_application(std::move(app));
  engine_.run_until(120.0);
  ASSERT_GT(payload_at, 0.0);
  EXPECT_GE(payload_at, 8.0);   // well above an HPC fork
  EXPECT_LE(payload_at, 60.0);  // but bounded
  rm.shutdown();
}

TEST_F(YarnTest, PreferredNodePlacement) {
  ResourceManager rm(engine_, allocation_);
  std::string placed_node;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.preferred_nodes = {"n2"};
    am.request_containers(1, req, [&](const Container& c) {
      placed_node = c.node;
    });
  };
  rm.submit_application(std::move(app));
  engine_.run_until(60.0);
  EXPECT_EQ(placed_node, "n2");
  rm.shutdown();
}

TEST_F(YarnTest, StrictLocalityWaitsForBusyNode) {
  YarnConfig cfg;
  cfg.nm_memory_mb = 4096;  // small NMs so we can fill one node
  ResourceManager rm(engine_, allocation_, cfg);
  std::string strict_node;
  AppDescriptor filler;
  filler.on_am_start = [&](ApplicationMaster& am) {
    // Occupy all of n0 (AM may land anywhere).
    ContainerRequest req;
    req.resource = {4096, 1};
    req.preferred_nodes = {"n0"};
    req.relax_locality = false;
    am.request_containers(1, req, [&](const Container& c) {
      am.launch(c.id, [] {});
    });
  };
  rm.submit_application(std::move(filler));
  engine_.run_until(60.0);

  AppDescriptor strict;
  strict.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {4096, 1};
    req.preferred_nodes = {"n0"};
    req.relax_locality = false;  // must wait: n0 is full
    am.request_containers(1, req, [&](const Container& c) {
      strict_node = c.node;
    });
  };
  rm.submit_application(std::move(strict));
  engine_.run_until(120.0);
  EXPECT_TRUE(strict_node.empty());  // still waiting, no fallback
  rm.shutdown();
}

TEST_F(YarnTest, MemoryAwareSchedulingRefusesOverCommit) {
  // 3 nodes x 14336 MB NM capacity: 5 x 8192 MB containers do not fit
  // (one per node + AM), even though plenty of cores remain — this is the
  // memory dimension the paper's scheduler extension adds.
  YarnConfig cfg;
  ResourceManager rm(engine_, allocation_, cfg);
  int granted = 0;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {8192, 1};
    am.request_containers(5, req,
                          [&](const Container&) { ++granted; });
  };
  rm.submit_application(std::move(app));
  engine_.run_until(120.0);
  EXPECT_LT(granted, 5);
  EXPECT_GE(granted, 3);
  rm.shutdown();
}

TEST_F(YarnTest, KillApplicationReleasesEverything) {
  ResourceManager rm(engine_, allocation_);
  std::string app_id;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    am.request_containers(2, req, [&am](const Container& c) {
      am.launch(c.id, [] {});
    });
  };
  app_id = rm.submit_application(std::move(app));
  engine_.run_until(60.0);
  ASSERT_EQ(rm.application(app_id).state, AppState::kRunning);
  rm.kill_application(app_id);
  EXPECT_EQ(rm.application(app_id).state, AppState::kKilled);
  EXPECT_EQ(rm.total_allocated().memory_mb, 0);
  rm.shutdown();
}

TEST_F(YarnTest, ClusterMetricsJson) {
  ResourceManager rm(engine_, allocation_);
  auto m = rm.cluster_metrics().at("clusterMetrics");
  EXPECT_EQ(m.at("activeNodes").as_int(), 3);
  EXPECT_EQ(m.at("totalVirtualCores").as_int(), 24);
  EXPECT_EQ(m.at("allocatedMB").as_int(), 0);
  const auto total = m.at("totalMB").as_int();
  EXPECT_EQ(m.at("availableMB").as_int(), total);
  rm.shutdown();
}

TEST_F(YarnTest, ClusterTotalsMatchANodeScanAcrossNodeChurn) {
  ResourceManager rm(engine_, allocation_);
  std::vector<std::string> nodes{"n0", "n1", "n2"};
  // The RM keeps its totals current incrementally; recount them from
  // the NMs, and check available() against the REST document.
  const auto expect_totals = [&](const char* when) {
    Resource capacity{0, 0};
    Resource allocated{0, 0};
    std::size_t schedulable = 0;
    for (const auto& name : nodes) {
      const NodeManager& nm = rm.node_manager(name);
      if (nm.alive() && !nm.decommissioning()) {
        capacity.memory_mb += nm.capacity().memory_mb;
        capacity.vcores += nm.capacity().vcores;
        if (!nm.crashed()) ++schedulable;
      }
      allocated.memory_mb += nm.allocated().memory_mb;
      allocated.vcores += nm.allocated().vcores;
    }
    EXPECT_EQ(rm.total_capacity(), capacity) << when;
    EXPECT_EQ(rm.total_allocated(), allocated) << when;
    EXPECT_EQ(rm.schedulable_node_count(), schedulable) << when;
    const Resource free = rm.available();
    EXPECT_EQ(free.memory_mb, capacity.memory_mb - allocated.memory_mb)
        << when;
    const auto m = rm.cluster_metrics().at("clusterMetrics");
    EXPECT_EQ(free.memory_mb, m.at("availableMB").as_int()) << when;
    EXPECT_EQ(free.vcores, m.at("availableVirtualCores").as_int()) << when;
  };
  expect_totals("idle");
  EXPECT_EQ(rm.available(), rm.total_capacity());

  std::vector<std::string> task_nodes;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {4096, 2};
    am.request_containers(3, req, [&](const Container& c) {
      task_nodes.push_back(c.node);
      am.launch(c.id, [] {});
    });
  };
  const auto app_id = rm.submit_application(std::move(app));
  engine_.run_until(60.0);
  ASSERT_EQ(rm.application(app_id).state, AppState::kRunning);
  ASSERT_EQ(task_nodes.size(), 3u);
  EXPECT_LT(rm.available().memory_mb, rm.total_capacity().memory_mb);
  expect_totals("after allocations");

  // A decommissioning node leaves the capacity while its containers
  // still run and still count as allocated.
  rm.decommission_node(task_nodes[0]);
  expect_totals("after decommission");

  const std::string lost = task_nodes[1] != task_nodes[0] ? task_nodes[1]
                                                          : task_nodes[2];
  rm.node_manager(lost).crash();  // containers die, the RM is not told
  expect_totals("after a silent crash");
  rm.fail_node(lost);
  expect_totals("after fail_node");
  rm.recover_node(lost);
  expect_totals("after recover_node");
  rm.recover_node(task_nodes[0]);  // also clears the decommission mark
  expect_totals("after recommission");

  rm.add_node(std::make_shared<cluster::Node>("n3", machine_.node));
  nodes.push_back("n3");
  expect_totals("after add_node");
  rm.remove_node("n3");
  nodes.pop_back();
  expect_totals("after remove_node");
  rm.shutdown();
}

TEST_F(YarnTest, PlacementPicksMostFreeMemoryFirstRegisteredOnTies) {
  ResourceManager rm(engine_, allocation_);
  std::vector<std::string> placed;
  ApplicationMaster* master = nullptr;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) { master = &am; };
  rm.submit_application(std::move(app));
  engine_.run_until(60.0);
  ASSERT_NE(master, nullptr);
  const auto ask = [&](int n) {
    ContainerRequest req;
    req.resource = {2048, 1};
    master->request_containers(n, req, [&](const Container& c) {
      placed.push_back(c.node);
    });
    engine_.run_until(engine_.now() + 30.0);
  };
  const std::string am_node = rm.node_manager("n0").live_count() > 0 ? "n0"
                              : rm.node_manager("n1").live_count() > 0
                                  ? "n1"
                                  : "n2";
  // The AM's node has the least free memory; the other two tie and are
  // filled alternately, first registered first.
  ask(2);
  std::vector<std::string> others;
  for (const std::string n : {"n0", "n1", "n2"}) {
    if (n != am_node) others.push_back(n);
  }
  EXPECT_EQ(placed, others);

  // Neither a decommissioning nor a crashed node takes containers, even
  // with the most free memory.
  placed.clear();
  rm.decommission_node(others[0]);
  rm.node_manager(others[1]).crash();
  ask(1);
  EXPECT_EQ(placed, std::vector<std::string>{am_node});

  // A node joining later has the most free memory and is picked next.
  placed.clear();
  rm.add_node(std::make_shared<cluster::Node>("n3", machine_.node));
  ask(1);
  EXPECT_EQ(placed, std::vector<std::string>{"n3"});
  rm.shutdown();
}

TEST_F(YarnTest, SchedulerInfoShowsQueues) {
  ResourceManager rm(engine_, allocation_, YarnConfig{},
                     {{"default", 0.7}, {"analytics", 0.3}});
  auto queues = rm.scheduler_info().at("scheduler").at("queues").as_array();
  ASSERT_EQ(queues.size(), 2u);
  EXPECT_EQ(queues[0].at("queueName").as_string(), "default");
  rm.shutdown();
}

TEST_F(YarnTest, InvalidQueueRejected) {
  ResourceManager rm(engine_, allocation_);
  AppDescriptor app;
  app.queue = "nope";
  EXPECT_THROW(rm.submit_application(std::move(app)), common::ConfigError);
  rm.shutdown();
}

TEST_F(YarnTest, OverCapacityQueueConfigRejected) {
  EXPECT_THROW(ResourceManager(engine_, allocation_, YarnConfig{},
                               {{"a", 0.8}, {"b", 0.4}}),
               common::ConfigError);
}

TEST_F(YarnTest, PreemptionRebalancesQueues) {
  YarnConfig cfg;
  cfg.preemption_enabled = true;
  ResourceManager rm(engine_, allocation_, cfg,
                     {{"prod", 0.5}, {"ad-hoc", 0.5}});
  // The ad-hoc app grabs the whole cluster.
  int adhoc_granted = 0;
  bool preempted = false;
  AppDescriptor hog;
  hog.queue = "ad-hoc";
  hog.on_am_start = [&](ApplicationMaster& am) {
    am.on_preempted([&](const Container&) { preempted = true; });
    ContainerRequest req;
    req.resource = {8192, 2};
    am.request_containers(5, req, [&](const Container& c) {
      ++adhoc_granted;
      am.launch(c.id, [] {});
    });
  };
  rm.submit_application(std::move(hog));
  engine_.run_until(60.0);
  ASSERT_GE(adhoc_granted, 3);

  // A prod app arrives; preemption must free resources for it.
  int prod_granted = 0;
  AppDescriptor prod;
  prod.queue = "prod";
  prod.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {8192, 2};
    am.request_containers(2, req,
                          [&](const Container&) { ++prod_granted; });
  };
  rm.submit_application(std::move(prod));
  engine_.run_until(200.0);
  EXPECT_TRUE(preempted);
  EXPECT_GE(prod_granted, 1);
  rm.shutdown();
}

TEST_F(YarnTest, YarnClusterFacadeBringsUpHdfsAndRm) {
  YarnCluster cluster(engine_, machine_, allocation_);
  EXPECT_EQ(cluster.hdfs().datanodes().size(), 3u);
  EXPECT_EQ(cluster.resource_manager().node_count(), 3u);
  cluster.hdfs().create_file("/input", 64 * common::kMiB, "n0");
  EXPECT_TRUE(cluster.hdfs().exists("/input"));
  cluster.shutdown();
}

TEST_F(YarnTest, SubmitAfterShutdownThrows) {
  ResourceManager rm(engine_, allocation_);
  rm.shutdown();
  EXPECT_THROW(rm.submit_application(AppDescriptor{}), common::StateError);
}

// ------------------------------------------------ only live work is kept ---

/// Counts the ReleaseRequests the RM sends its NodeManagers.
class ReleaseCounter : public net::InProcessTransport {
 public:
  net::Envelope call(const std::string& endpoint,
                     const net::Envelope& request) override {
    if (request.type == net::MsgType::kReleaseRequest) ++releases;
    return net::InProcessTransport::call(endpoint, request);
  }
  int releases = 0;
};

/// Submits one Mode-I style application: its AM asks for one task
/// container, runs it, completes it and unregisters. Records the
/// container ids it was given.
std::string submit_dedicated_unit(ResourceManager& rm, sim::Engine& engine,
                                  std::vector<std::string>& containers) {
  AppDescriptor app;
  app.on_am_start = [&engine, &containers](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {2048, 1};
    am.request_containers(1, req, [&](const Container& c) {
      containers.push_back(c.id);
      am.launch(c.id, [&engine, &am, id = c.id] {
        engine.schedule(5.0, [&am, id] {
          am.complete_container(id);
          am.unregister(true);
        });
      });
    });
  };
  return rm.submit_application(std::move(app));
}

TEST_F(YarnTest, FinishedUnitsLeaveNoContainersBehind) {
  ResourceManager rm(engine_, allocation_);
  std::vector<std::string> app_ids;
  std::vector<std::string> containers;
  constexpr int kUnits = 6;
  for (int i = 0; i < kUnits; ++i) {
    app_ids.push_back(submit_dedicated_unit(rm, engine_, containers));
  }
  engine_.run();
  ASSERT_EQ(containers.size(), static_cast<std::size_t>(kUnits));
  for (const std::string node : {"n0", "n1", "n2"}) {
    const NodeManager& nm = rm.node_manager(node);
    EXPECT_EQ(nm.live_count(), 0u) << node;
    for (const auto& id : containers) {
      EXPECT_FALSE(nm.has_container(id)) << node << " " << id;
    }
  }
  for (const auto& id : containers) {
    EXPECT_EQ(rm.container_state(id), std::nullopt) << id;
  }
  // The reports outlive the containers.
  for (const auto& id : app_ids) {
    EXPECT_EQ(rm.application(id).state, AppState::kFinished) << id;
  }
  EXPECT_EQ(rm.applications().size(), app_ids.size());
  EXPECT_EQ(rm.apps_json().at("apps").at("app").as_array().size(),
            app_ids.size());
  EXPECT_EQ(rm.total_allocated(), (Resource{0, 0}));
  rm.shutdown();
}

TEST_F(YarnTest, UnregisterReleasesOnlyContainersStillHeld) {
  ReleaseCounter transport;
  YarnConfig cfg;
  cfg.transport = &transport;
  ResourceManager rm(engine_, allocation_, cfg);
  std::vector<std::string> containers;
  submit_dedicated_unit(rm, engine_, containers);
  engine_.run();
  ASSERT_EQ(containers.size(), 1u);
  // One release for the completed task container, one for the AM's at
  // unregister; the task container is not released a second time.
  EXPECT_EQ(transport.releases, 2);
  rm.shutdown();
}

TEST_F(YarnTest, FinishedAppFreesItsCallbacks) {
  ResourceManager rm(engine_, allocation_);
  auto started = std::make_shared<int>(0);
  auto finished = std::make_shared<int>(0);
  auto preempted = std::make_shared<int>(0);
  AppDescriptor app;
  app.on_am_start = [started, preempted](ApplicationMaster& am) {
    ++*started;
    am.on_preempted([preempted](const Container&) { ++*preempted; });
    // Unregistering from inside on_am_start finishes the app while this
    // closure runs.
    am.unregister(true);
  };
  app.on_finished = [finished](const AppReport&) { ++*finished; };
  const auto app_id = rm.submit_application(std::move(app));
  engine_.run();
  EXPECT_EQ(rm.application(app_id).state, AppState::kFinished);
  EXPECT_EQ(*started, 1);
  EXPECT_EQ(*finished, 1);
  EXPECT_EQ(started.use_count(), 1);
  EXPECT_EQ(finished.use_count(), 1);
  EXPECT_EQ(preempted.use_count(), 1);

  // Killed before its AM ever ran: the unused closure goes too.
  auto never = std::make_shared<int>(0);
  AppDescriptor killed;
  killed.on_am_start = [never](ApplicationMaster&) { ++*never; };
  const auto killed_id = rm.submit_application(std::move(killed));
  rm.kill_application(killed_id);
  engine_.run();
  EXPECT_EQ(*never, 0);
  EXPECT_EQ(never.use_count(), 1);
  EXPECT_EQ(rm.application(killed_id).state, AppState::kKilled);
  rm.shutdown();
}

TEST_F(YarnTest, SilentCrashOfAmAndTaskHostStillPropagatesLosses) {
  YarnConfig cfg;
  cfg.nm_liveness_timeout = 30.0;
  ResourceManager rm(engine_, allocation_, cfg);
  sim::Trace trace;
  rm.set_trace(&trace);
  // Equal free memory: app A's AM lands on the first registered node,
  // n0, and app B's on n1.
  std::string b_task;
  AppDescriptor a;
  a.on_am_start = [](ApplicationMaster&) {};
  const auto a_id = rm.submit_application(std::move(a));
  AppDescriptor b;
  b.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {2048, 1};
    req.preferred_nodes = {"n0"};
    req.relax_locality = false;
    am.request_containers(1, req, [&](const Container& c) {
      b_task = c.id;
      am.launch(c.id, [] {});
    });
  };
  const auto b_id = rm.submit_application(std::move(b));
  engine_.run_until(60.0);
  ASSERT_EQ(rm.application(a_id).am_node, "n0");
  ASSERT_EQ(rm.application(b_id).am_node, "n1");
  ASSERT_FALSE(b_task.empty());
  ASSERT_EQ(rm.container_state(b_task), ContainerState::kRunning);

  rm.node_manager("n0").crash();  // silent: the RM is not told
  // The task died with its node even before the RM learns of it.
  EXPECT_EQ(rm.container_state(b_task), std::nullopt);
  EXPECT_EQ(rm.node_manager("n0").live_count(), 0u);
  EXPECT_EQ(rm.node_manager("n0").lost_on_crash().size(), 2u);
  engine_.run_until(200.0);

  const auto restarts = trace.find("yarn", "am_restart");
  ASSERT_EQ(restarts.size(), 1u);
  EXPECT_EQ(restarts.front().attrs.at("app"), a_id);
  EXPECT_EQ(restarts.front().attrs.at("node"), "n0");
  const auto lost = trace.find("yarn", "task_container_lost");
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost.front().attrs.at("app"), b_id);
  EXPECT_EQ(lost.front().attrs.at("container"), b_task);
  EXPECT_TRUE(rm.node_manager("n0").lost_on_crash().empty());
  rm.shutdown();
}

/// Submits and kills \p count applications: each finishes at once.
void finish_apps(ResourceManager& rm, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    rm.kill_application(rm.submit_application(AppDescriptor{}));
  }
}

TEST_F(YarnTest, FinishedApplicationsKeepABoundedWindow) {
  ResourceManager rm(engine_, allocation_);
  AppDescriptor live;
  live.on_am_start = [](ApplicationMaster&) {};  // runs until shutdown
  const auto live_id = rm.submit_application(std::move(live));
  AppDescriptor first;
  first.on_am_start = [](ApplicationMaster& am) { am.unregister(true); };
  const auto first_id = rm.submit_application(std::move(first));
  engine_.run_until(60.0);
  ASSERT_EQ(rm.application(first_id).state, AppState::kFinished);
  ASSERT_EQ(rm.application(live_id).state, AppState::kRunning);

  // One finish more than the window holds: the oldest finished goes.
  constexpr std::size_t kWindow = ResourceManager::kMaxCompletedApps;
  finish_apps(rm, kWindow);
  EXPECT_EQ(rm.applications().size(), kWindow + 1);  // + the live app
  EXPECT_EQ(rm.apps_json().at("apps").at("app").as_array().size(),
            kWindow + 1);
  EXPECT_THROW(rm.application(first_id), common::NotFoundError);
  EXPECT_THROW(rm.kill_application(first_id), common::NotFoundError);
  EXPECT_EQ(rm.application(live_id).state, AppState::kRunning);
  // The counts stay exact past the eviction.
  const auto m = rm.cluster_metrics().at("clusterMetrics");
  EXPECT_EQ(m.at("appsSubmitted").as_int(),
            static_cast<std::int64_t>(kWindow + 2));
  EXPECT_EQ(m.at("appsCompleted").as_int(),
            static_cast<std::int64_t>(kWindow + 1));
  EXPECT_EQ(m.at("appsRunning").as_int(), 1);

  rm.shutdown();  // kills the live app, which evicts one more
  EXPECT_EQ(rm.applications().size(), kWindow);
  EXPECT_EQ(rm.application(live_id).state, AppState::kKilled);
  EXPECT_EQ(rm.cluster_metrics()
                .at("clusterMetrics")
                .at("appsCompleted")
                .as_int(),
            static_cast<std::int64_t>(kWindow + 2));
}

TEST_F(YarnTest, PendingRegistrationHoldsAFinishedRecord) {
  ResourceManager rm(engine_, allocation_);
  bool started = false;
  AppDescriptor app;
  app.on_am_start = [&started](ApplicationMaster&) { started = true; };
  const auto app_id = rm.submit_application(std::move(app));
  // The AM container runs from 12.5 s; it registers at 15.5 s.
  engine_.run_until(14.0);
  ASSERT_EQ(rm.application(app_id).state, AppState::kAmLaunching);
  rm.kill_application(app_id);
  // A window's worth of finishes puts it first in line, but the pending
  // registration event still points at it: it stays.
  constexpr std::size_t kWindow = ResourceManager::kMaxCompletedApps;
  finish_apps(rm, kWindow);
  EXPECT_EQ(rm.application(app_id).state, AppState::kKilled);
  EXPECT_EQ(rm.applications().size(), kWindow + 1);
  engine_.run_until(20.0);  // the registration sees a killed app
  EXPECT_FALSE(started);
  // Released: the next finish evicts it and trims to the window.
  finish_apps(rm, 1);
  EXPECT_THROW(rm.application(app_id), common::NotFoundError);
  EXPECT_EQ(rm.applications().size(), kWindow);
  rm.shutdown();
}

// The RM's ids as the printf formatter printed them, across each
// padding width's boundary.
TEST(YarnIds, MatchPrintfAtThePaddingBoundaries) {
  constexpr unsigned long long kStamp = 1454300000;
  for (const unsigned long long n :
       {1ull, 9999ull, 10000ull, 999999ull, 1000000ull,
        18446744073709551615ull}) {
    char app[96];
    std::snprintf(app, sizeof(app), "application_%llu_%04llu", kStamp, n);
    EXPECT_EQ(make_application_id(kStamp, n), app) << n;
    char container[96];
    std::snprintf(container, sizeof(container), "container_%llu_%06llu",
                  kStamp, n);
    EXPECT_EQ(make_container_id(kStamp, n), container) << n;
  }
}

}  // namespace
}  // namespace hoh::yarn

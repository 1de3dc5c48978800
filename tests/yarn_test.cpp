#include <gtest/gtest.h>

#include "common/error.h"
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
  engine_.run_until(60.0);
  EXPECT_EQ(rm.application(app_id).state, AppState::kFinished);
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

}  // namespace
}  // namespace hoh::yarn

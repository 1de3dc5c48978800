#include <gtest/gtest.h>

#include "common/error.h"
#include "mapreduce/yarn_mr_driver.h"
#include "yarn/resource_manager.h"

/// Clients of the YARN ResourceManager: the MapReduce-over-YARN driver
/// submits its jobs through the RM's public API, as any YARN client does.

namespace hoh {
namespace {

class YarnClientTest : public ::testing::Test {
 protected:
  YarnClientTest() : machine_(cluster::generic_profile(3, 8, 16 * 1024)) {
    std::vector<std::shared_ptr<cluster::Node>> nodes;
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(std::make_shared<cluster::Node>(
          "n" + std::to_string(i), machine_.node));
    }
    allocation_ = cluster::Allocation(nodes);
    rm_ = std::make_unique<yarn::ResourceManager>(engine_, allocation_);
  }
  ~YarnClientTest() override { rm_->shutdown(); }

  sim::Engine engine_;
  cluster::MachineProfile machine_;
  cluster::Allocation allocation_;
  std::unique_ptr<yarn::ResourceManager> rm_;
};

TEST_F(YarnClientTest, MrJobRunsMapThenReduce) {
  mapreduce::YarnMrDriver driver(*rm_);
  bool done = false;
  mapreduce::YarnMrJobSpec spec;
  spec.map_tasks = 6;
  spec.reduce_tasks = 2;
  spec.map_task_seconds = 20.0;
  spec.reduce_task_seconds = 10.0;
  const auto id = driver.submit(spec, [&] { done = true; });

  // Mid-flight: maps progress before any reduce starts (maps finish
  // around t=42; reduce containers need allocation + launch after that).
  engine_.run_until(45.0);
  const auto mid = driver.status(id);
  EXPECT_GT(mid.maps_done, 0);
  EXPECT_EQ(mid.reduces_done, 0);

  engine_.run_until(400.0);
  const auto fin = driver.status(id);
  EXPECT_TRUE(done);
  EXPECT_TRUE(fin.finished);
  EXPECT_EQ(fin.maps_done, 6);
  EXPECT_EQ(fin.reduces_done, 2);
  EXPECT_EQ(rm_->application(id).state, yarn::AppState::kFinished);
  // All resources returned.
  EXPECT_EQ(rm_->total_allocated().memory_mb, 0);
}

TEST_F(YarnClientTest, MrJobHonorsSplitLocality) {
  mapreduce::YarnMrDriver driver(*rm_);
  mapreduce::YarnMrJobSpec spec;
  spec.map_tasks = 3;
  spec.reduce_tasks = 1;
  spec.map_task_seconds = 5.0;
  spec.reduce_task_seconds = 2.0;
  spec.split_locations = {"n0", "n1", "n2"};  // one split per node
  const auto id = driver.submit(spec);
  engine_.run_until(300.0);
  const auto status = driver.status(id);
  ASSERT_TRUE(status.finished);
  // With an idle cluster every map lands on its split's node.
  EXPECT_DOUBLE_EQ(status.map_locality, 1.0);
}

TEST_F(YarnClientTest, MapOnlyJob) {
  mapreduce::YarnMrDriver driver(*rm_);
  mapreduce::YarnMrJobSpec spec;
  spec.map_tasks = 2;
  spec.reduce_tasks = 0;
  spec.map_task_seconds = 5.0;
  const auto id = driver.submit(spec);
  engine_.run_until(120.0);
  EXPECT_TRUE(driver.status(id).finished);
}

TEST_F(YarnClientTest, MrSpecValidation) {
  mapreduce::YarnMrDriver driver(*rm_);
  mapreduce::YarnMrJobSpec bad;
  bad.map_tasks = 0;
  EXPECT_THROW(driver.submit(bad), common::ConfigError);
  EXPECT_THROW(driver.status("nope"), common::NotFoundError);
}

TEST_F(YarnClientTest, TwoConcurrentMrJobsShareCluster) {
  mapreduce::YarnMrDriver driver(*rm_);
  int done = 0;
  mapreduce::YarnMrJobSpec spec;
  spec.map_tasks = 4;
  spec.reduce_tasks = 1;
  spec.map_task_seconds = 15.0;
  spec.reduce_task_seconds = 5.0;
  driver.submit(spec, [&] { ++done; });
  driver.submit(spec, [&] { ++done; });
  engine_.run_until(600.0);
  EXPECT_EQ(done, 2);
}

}  // namespace
}  // namespace hoh

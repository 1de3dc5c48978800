#include <gtest/gtest.h>

#include "common/error.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"

namespace hoh::pilot {
namespace {

/// Fixture for the YARN/Spark integration paths (Mode I and Mode II).
class PilotYarnSparkTest : public ::testing::Test {
 protected:
  PilotYarnSparkTest() {
    session_.register_machine(cluster::stampede_profile(),
                              hpc::SchedulerKind::kSlurm, 8);
    session_.register_machine(cluster::wrangler_profile(),
                              hpc::SchedulerKind::kSge, 8);
    session_.create_dedicated_hadoop("wrangler", 3);
  }

  PilotDescription pilot_desc(const std::string& resource, int nodes,
                              AgentBackend backend) {
    PilotDescription pd;
    pd.resource = resource;
    pd.nodes = nodes;
    pd.runtime = 14400.0;
    pd.backend = backend;
    return pd;
  }

  ComputeUnitDescription simple_unit(common::Seconds duration = 10.0) {
    ComputeUnitDescription cud;
    cud.duration = duration;
    cud.cores = 1;
    cud.memory_mb = 2048;
    return cud;
  }

  /// Seconds from agent start to first unit executing (the paper's agent
  /// startup metric).
  double agent_startup_span(const std::string& pilot_id) {
    for (const auto& s : session_.trace().find_spans("pilot",
                                                     "agent_startup")) {
      if (s.key == pilot_id) return s.duration();
    }
    return -1.0;
  }

  double engine_now_plus(double dt) { return session_.engine().now() + dt; }

  Session session_;
  PilotManager pm_{session_};
  UnitManager um_{session_};
};

TEST_F(PilotYarnSparkTest, ModeIBootstrapsYarnCluster) {
  auto pilot = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 3, AgentBackend::kYarnModeI));
  um_.add_pilot(pilot);
  auto unit = um_.submit(simple_unit());
  session_.engine().run_until(600.0);
  EXPECT_EQ(pilot->state(), PilotState::kActive);
  ASSERT_NE(pilot->agent()->yarn_cluster(), nullptr);
  EXPECT_EQ(pilot->agent()->yarn_cluster()->resource_manager().node_count(),
            3u);
  EXPECT_EQ(unit->state(), UnitState::kDone);
  EXPECT_TRUE(
      session_.trace().first("pilot", "yarn_bootstrapped").has_value());
}

TEST_F(PilotYarnSparkTest, ModeIStartupSlowerThanPlain) {
  auto plain = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 1, AgentBackend::kPlain));
  auto mode1 = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 1, AgentBackend::kYarnModeI));
  UnitManager um_plain(session_);
  UnitManager um_yarn(session_);
  um_plain.add_pilot(plain);
  um_yarn.add_pilot(mode1);
  um_plain.submit(simple_unit(1.0));
  um_yarn.submit(simple_unit(1.0));
  session_.engine().run_until(900.0);

  const double plain_startup = agent_startup_span(plain->id());
  const double yarn_startup = agent_startup_span(mode1->id());
  ASSERT_GT(plain_startup, 0.0);
  ASSERT_GT(yarn_startup, 0.0);
  // Paper SS-IV-A: Mode I pays an extra 50-85 s for the cluster
  // bootstrap (single-node YARN).
  EXPECT_GT(yarn_startup, plain_startup + 50.0);
  EXPECT_LT(yarn_startup, plain_startup + 120.0);
}

TEST_F(PilotYarnSparkTest, ModeIIStartupComparableToPlain) {
  auto plain = pm_.submit_pilot(
      pilot_desc("sge://wrangler/", 1, AgentBackend::kPlain));
  auto mode2 = pm_.submit_pilot(
      pilot_desc("sge://wrangler/", 1, AgentBackend::kYarnModeII));
  UnitManager um_plain(session_);
  UnitManager um_yarn(session_);
  um_plain.add_pilot(plain);
  um_yarn.add_pilot(mode2);
  um_plain.submit(simple_unit(1.0));
  um_yarn.submit(simple_unit(1.0));
  session_.engine().run_until(900.0);

  const double plain_startup = agent_startup_span(plain->id());
  const double mode2_startup = agent_startup_span(mode2->id());
  ASSERT_GT(plain_startup, 0.0);
  ASSERT_GT(mode2_startup, 0.0);
  // "The startup times for Mode II on Wrangler ... are comparable to the
  // normal RADICAL-Pilot startup times" — within the YARN CU dispatch
  // overhead, far below the Mode-I bootstrap.
  EXPECT_LT(mode2_startup - plain_startup, 50.0);
}

TEST_F(PilotYarnSparkTest, ModeIIWithoutDedicatedClusterThrows) {
  EXPECT_THROW(pm_.submit_pilot(pilot_desc("slurm://stampede/", 1,
                                           AgentBackend::kYarnModeII)),
               common::ConfigError);
}

TEST_F(PilotYarnSparkTest, YarnUnitStartupSlowerThanPlainUnit) {
  // Fig. 5 inset: CU startup through YARN (AM + container) is tens of
  // seconds; plain RP startup is ~1-2 s. Measure on active pilots so the
  // pilot bootstrap does not pollute the unit spans.
  auto plain = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 1, AgentBackend::kPlain));
  auto mode1 = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 1, AgentBackend::kYarnModeI));
  session_.engine().run_until(400.0);
  ASSERT_EQ(plain->state(), PilotState::kActive);
  ASSERT_EQ(mode1->state(), PilotState::kActive);

  UnitManager um_plain(session_);
  UnitManager um_yarn(session_);
  um_plain.add_pilot(plain);
  um_yarn.add_pilot(mode1);
  auto plain_unit = um_plain.submit(simple_unit(1.0));
  auto yarn_unit = um_yarn.submit(simple_unit(1.0));
  session_.engine().run_until(600.0);
  ASSERT_EQ(plain_unit->state(), UnitState::kDone);
  ASSERT_EQ(yarn_unit->state(), UnitState::kDone);

  double plain_span = -1.0;
  double yarn_span = -1.0;
  for (const auto& s : session_.trace().find_spans("unit", "startup")) {
    if (s.key == plain_unit->id()) plain_span = s.duration();
    if (s.key == yarn_unit->id()) yarn_span = s.duration();
  }
  ASSERT_GT(plain_span, 0.0);
  ASSERT_GT(yarn_span, 0.0);
  EXPECT_LT(plain_span, 5.0);
  EXPECT_GT(yarn_span, 15.0);
  EXPECT_LT(yarn_span, 60.0);
}

TEST_F(PilotYarnSparkTest, YarnSchedulerGatesOnClusterMemory) {
  // 3 Stampede nodes (28 GB NM each = 84 GB). 32 units of 8 GB + 1 GB AM
  // cannot all run at once; the agent's YARN scheduler must hold some
  // back and finish them in waves.
  auto pilot = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 3, AgentBackend::kYarnModeI));
  um_.add_pilot(pilot);
  ComputeUnitDescription big = simple_unit(30.0);
  big.memory_mb = 8 * 1024;
  um_.submit(std::vector<ComputeUnitDescription>(32, big));
  session_.engine().run_until(240.0);
  ASSERT_EQ(pilot->state(), PilotState::kActive);
  EXPECT_GT(pilot->agent()->units_queued() + pilot->agent()->units_running(),
            0u);
  session_.engine().run_until(3000.0);
  EXPECT_TRUE(um_.all_done()) << "running=" << pilot->agent()->units_running()
                              << " queued=" << pilot->agent()->units_queued();
}

TEST_F(PilotYarnSparkTest, AmReuseCutsSecondUnitStartup) {
  AgentConfig reuse;
  reuse.reuse_yarn_app = true;
  auto pilot = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 1, AgentBackend::kYarnModeI), reuse);
  session_.engine().run_until(400.0);
  ASSERT_EQ(pilot->state(), PilotState::kActive);

  um_.add_pilot(pilot);
  auto first = um_.submit(simple_unit(1.0));
  session_.engine().run_until(engine_now_plus(120.0));
  ASSERT_EQ(first->state(), UnitState::kDone);
  auto second = um_.submit(simple_unit(1.0));
  session_.engine().run_until(engine_now_plus(120.0));
  ASSERT_EQ(second->state(), UnitState::kDone);

  double first_span = -1.0;
  double second_span = -1.0;
  for (const auto& s : session_.trace().find_spans("unit", "startup")) {
    if (s.key == first->id()) first_span = s.duration();
    if (s.key == second->id()) second_span = s.duration();
  }
  // The second unit skips AM allocation *and* hits the wrapper cache.
  EXPECT_LT(second_span, first_span / 2.0);
}

TEST_F(PilotYarnSparkTest, SparkModeIExecutesUnits) {
  auto pilot = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 2, AgentBackend::kSparkModeI));
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(4, simple_unit(10.0)));
  session_.engine().run_until(600.0);
  EXPECT_EQ(pilot->state(), PilotState::kActive);
  ASSERT_NE(pilot->agent()->spark_cluster(), nullptr);
  EXPECT_TRUE(um_.all_done());
  EXPECT_TRUE(
      session_.trace().first("pilot", "spark_bootstrapped").has_value());
}

TEST_F(PilotYarnSparkTest, SparkBootstrapCheaperThanYarn) {
  auto spark = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 2, AgentBackend::kSparkModeI));
  auto yarn = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 2, AgentBackend::kYarnModeI));
  UnitManager um_s(session_);
  UnitManager um_y(session_);
  um_s.add_pilot(spark);
  um_y.add_pilot(yarn);
  um_s.submit(simple_unit(1.0));
  um_y.submit(simple_unit(1.0));
  session_.engine().run_until(900.0);
  EXPECT_LT(agent_startup_span(spark->id()), agent_startup_span(yarn->id()));
}

TEST_F(PilotYarnSparkTest, DataAwareSchedulingFollowsHdfsBlocks) {
  AgentConfig cfg;
  cfg.data_aware_scheduling = true;
  auto pilot = pm_.submit_pilot(
      pilot_desc("sge://wrangler/", 1, AgentBackend::kYarnModeII), cfg);
  session_.engine().run_until(200.0);
  ASSERT_EQ(pilot->state(), PilotState::kActive);

  // Put a single-replica file on a known dedicated-Hadoop node.
  auto* hadoop = session_.dedicated_hadoop("wrangler");
  ASSERT_NE(hadoop, nullptr);
  const std::string target = hadoop->allocation().node_names()[2];
  hadoop->hdfs().create_file("/data/traj.dcd", 64 * common::kMiB, target, 1);

  um_.add_pilot(pilot);
  ComputeUnitDescription cud = simple_unit(5.0);
  cud.input_staging = {
      StagedFile{saga::Url("hdfs://wrangler/data/traj.dcd"), 64 * common::kMiB}};
  auto unit = um_.submit(cud);
  session_.engine().run_until(engine_now_plus(300.0));
  ASSERT_EQ(unit->state(), UnitState::kDone);

  // The container must have been placed on the block-holding node.
  std::string placed;
  for (const auto& e : session_.trace().find("unit", "placed")) {
    if (e.attrs.at("unit") == unit->id()) placed = e.attrs.at("node");
  }
  EXPECT_EQ(placed, target);
}

// Cancelling a pilot withdraws the units it is still executing: they end
// Canceled (a deliberate stop), the Unit-Manager's barrier releases, and
// whatever they held returns to its owner.
TEST_F(PilotYarnSparkTest, CancelEndsExecutingUnitsOnPlain) {
  auto pilot = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 2, AgentBackend::kPlain));
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(4, simple_unit(100000.0)));
  session_.engine().run_until(600.0);
  for (const auto& u : units) ASSERT_EQ(u->state(), UnitState::kExecuting);
  pilot->cancel();
  session_.engine().run_until(engine_now_plus(18000.0));
  for (const auto& u : units) EXPECT_EQ(u->state(), UnitState::kCanceled);
  EXPECT_TRUE(um_.all_done());
}

TEST_F(PilotYarnSparkTest, CancelReleasesExternalYarnOnModeII) {
  auto* hadoop = session_.dedicated_hadoop("wrangler");
  ASSERT_NE(hadoop, nullptr);
  auto pilot = pm_.submit_pilot(
      pilot_desc("sge://wrangler/", 2, AgentBackend::kYarnModeII));
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(4, simple_unit(100000.0)));
  session_.engine().run_until(600.0);
  for (const auto& u : units) ASSERT_EQ(u->state(), UnitState::kExecuting);
  ASSERT_GT(hadoop->resource_manager().total_allocated().memory_mb, 0);
  pilot->cancel();
  session_.engine().run_until(engine_now_plus(18000.0));
  for (const auto& u : units) EXPECT_EQ(u->state(), UnitState::kCanceled);
  EXPECT_TRUE(um_.all_done());
  EXPECT_EQ(hadoop->resource_manager().total_allocated().memory_mb, 0);
  EXPECT_EQ(hadoop->resource_manager().total_allocated().vcores, 0);
}

// A Mode II pilot's shared application lives on a cluster the pilot does
// not own: ending the pilot must end the application too.
TEST_F(PilotYarnSparkTest, CancelReleasesSharedAmOnModeII) {
  auto* hadoop = session_.dedicated_hadoop("wrangler");
  ASSERT_NE(hadoop, nullptr);
  AgentConfig reuse;
  reuse.reuse_yarn_app = true;
  auto pilot = pm_.submit_pilot(
      pilot_desc("sge://wrangler/", 1, AgentBackend::kYarnModeII), reuse);
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(3, simple_unit(10.0)));
  session_.engine().run_until(600.0);
  for (const auto& u : units) ASSERT_EQ(u->state(), UnitState::kDone);
  pilot->cancel();
  session_.engine().run_until(engine_now_plus(600.0));
  EXPECT_EQ(hadoop->resource_manager().total_allocated().memory_mb, 0);
  EXPECT_EQ(hadoop->resource_manager().total_allocated().vcores, 0);
}

/// The RM report of the application named \p name.
yarn::AppReport app_named(const yarn::ResourceManager& rm,
                          const std::string& name) {
  for (const auto& report : rm.applications()) {
    if (report.name == name) return report;
  }
  ADD_FAILURE() << "no application " << name;
  return {};
}

// A unit's dedicated application fails under it (its AM is lost beyond
// its attempts), and then more applications finish than the RM keeps:
// the evicted record held the unit's AM handle, so the unit must have
// let go of it when the application finished. Under AddressSanitizer a
// kept handle is a use-after-free when the pilot ends or the unit's
// payload ends.
TEST_F(PilotYarnSparkTest, FailedApplicationLeavesNoDanglingAmHandle) {
  AgentConfig once;
  once.yarn.yarn.am_max_attempts = 1;
  auto pilot = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 4, AgentBackend::kYarnModeI), once);
  um_.add_pilot(pilot);
  ComputeUnitDescription victim_desc = simple_unit(20000.0);
  victim_desc.name = "victim";
  auto victim = um_.submit(victim_desc);
  while (victim->state() != UnitState::kExecuting &&
         session_.engine().now() < 3600.0) {
    session_.engine().run_until(engine_now_plus(10.0));
  }
  ASSERT_EQ(victim->state(), UnitState::kExecuting);
  yarn::ResourceManager& rm =
      pilot->agent()->yarn_cluster()->resource_manager();
  const yarn::AppReport app = app_named(rm, "victim");
  rm.fail_node(app.am_node);
  ASSERT_EQ(rm.application(app.id).state, yarn::AppState::kFailed);

  auto others = um_.submit(std::vector<ComputeUnitDescription>(
      yarn::ResourceManager::kMaxCompletedApps + 10, simple_unit(1.0)));
  while (others.back()->state() != UnitState::kDone &&
         session_.engine().now() < 19000.0) {
    session_.engine().run_until(engine_now_plus(100.0));
  }
  for (const auto& u : others) ASSERT_EQ(u->state(), UnitState::kDone);
  EXPECT_THROW(rm.application(app.id), common::NotFoundError);
  // The victim's payload timer ends without touching its application.
  session_.engine().run_until(engine_now_plus(20000.0));
  EXPECT_TRUE(is_final(victim->state()));
}

// The shared application of a reuse_yarn_app pilot fails: the pilot
// forgets its AM and the next unit starts a new shared application,
// instead of asking the failed AM for a container.
TEST_F(PilotYarnSparkTest, FailedSharedApplicationIsReplaced) {
  AgentConfig reuse;
  reuse.reuse_yarn_app = true;
  reuse.yarn.yarn.am_max_attempts = 1;
  auto pilot = pm_.submit_pilot(
      pilot_desc("slurm://stampede/", 3, AgentBackend::kYarnModeI), reuse);
  um_.add_pilot(pilot);
  auto first = um_.submit(
      std::vector<ComputeUnitDescription>(2, simple_unit(300.0)));
  while (first.back()->state() != UnitState::kExecuting &&
         session_.engine().now() < 3600.0) {
    session_.engine().run_until(engine_now_plus(10.0));
  }
  ASSERT_EQ(first.front()->state(), UnitState::kExecuting);
  ASSERT_EQ(first.back()->state(), UnitState::kExecuting);
  yarn::ResourceManager& rm =
      pilot->agent()->yarn_cluster()->resource_manager();
  const yarn::AppReport shared = app_named(rm, "radical-pilot-shared");
  rm.fail_node(shared.am_node);
  ASSERT_EQ(rm.application(shared.id).state, yarn::AppState::kFailed);

  auto later = um_.submit(simple_unit(10.0));
  session_.engine().run_until(engine_now_plus(1200.0));
  EXPECT_EQ(later->state(), UnitState::kDone);
  std::size_t shared_apps = 0;
  for (const auto& report : rm.applications()) {
    if (report.name == "radical-pilot-shared") ++shared_apps;
  }
  EXPECT_EQ(shared_apps, 2u);
  for (const auto& u : first) EXPECT_TRUE(is_final(u->state()));
}

}  // namespace
}  // namespace hoh::pilot

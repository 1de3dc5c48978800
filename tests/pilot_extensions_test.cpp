#include <gtest/gtest.h>

#include "pilot/estimator.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"

namespace hoh::pilot {
namespace {

// ----------------------------------------------------------- heartbeat ---

class HeartbeatTest : public ::testing::Test {
 protected:
  HeartbeatTest() {
    session_.register_machine(cluster::generic_profile(4, 8, 16 * 1024),
                              hpc::SchedulerKind::kSlurm, 4);
  }
  Session session_;
  PilotManager pm_{session_};
};

TEST_F(HeartbeatTest, AgentWritesPeriodicHeartbeats) {
  PilotDescription pd;
  pd.resource = "slurm://beowulf/";
  auto pilot = pm_.submit_pilot(pd);
  EXPECT_FALSE(pilot->heartbeat().has_value());  // not yet active
  session_.engine().run_until(60.0);
  auto hb1 = pilot->heartbeat();
  ASSERT_TRUE(hb1.has_value());
  EXPECT_TRUE(hb1->alive);
  const double t1 = hb1->last_heartbeat;
  session_.engine().run_until(120.0);
  const double t2 = pilot->heartbeat()->last_heartbeat;
  EXPECT_GT(t2, t1);  // heartbeats keep coming
}

TEST_F(HeartbeatTest, HeartbeatCountsUnits) {
  PilotDescription pd;
  pd.resource = "slurm://beowulf/";
  auto pilot = pm_.submit_pilot(pd);
  UnitManager um(session_);
  um.add_pilot(pilot);
  ComputeUnitDescription cud;
  cud.duration = 5.0;
  cud.memory_mb = 1024;
  um.submit({cud, cud, cud});
  session_.engine().run_until(120.0);
  ASSERT_TRUE(um.all_done());
  session_.engine().run_until(160.0);  // next heartbeat tick
  EXPECT_EQ(pilot->heartbeat()->units_completed, 3u);
}

TEST_F(HeartbeatTest, TombstoneOnCancel) {
  PilotDescription pd;
  pd.resource = "slurm://beowulf/";
  auto pilot = pm_.submit_pilot(pd);
  session_.engine().run_until(60.0);
  ASSERT_TRUE(pilot->heartbeat()->alive);
  pilot->cancel();
  EXPECT_FALSE(pilot->heartbeat()->alive);
  const double tomb = pilot->heartbeat()->last_heartbeat;
  session_.engine().run_until(200.0);
  // No further heartbeats after the tombstone.
  EXPECT_DOUBLE_EQ(pilot->heartbeat()->last_heartbeat, tomb);
}

// ----------------------------------------------------------- estimator ---

TEST(EstimatorTest, ColdStartUsesDefault) {
  MovingAverageEstimator est(0.5, 42.0);
  ComputeUnitDescription cud;
  cud.executable = "gromacs";
  EXPECT_DOUBLE_EQ(est.predict(cud), 42.0);
}

TEST(EstimatorTest, LearnsPerExecutable) {
  MovingAverageEstimator est(0.5, 10.0);
  ComputeUnitDescription md;
  md.executable = "gromacs";
  ComputeUnitDescription py;
  py.executable = "python";
  est.observe(md, 100.0);
  est.observe(py, 4.0);
  EXPECT_DOUBLE_EQ(est.predict(md), 100.0);  // first observation taken
  EXPECT_DOUBLE_EQ(est.predict(py), 4.0);
  est.observe(md, 200.0);
  EXPECT_DOUBLE_EQ(est.predict(md), 150.0);  // EMA with alpha 0.5
  EXPECT_EQ(est.observed_executables(), 2u);
}

TEST(EstimatorTest, ConvergesToStableRuntime) {
  MovingAverageEstimator est(0.3, 1.0);
  ComputeUnitDescription cud;
  cud.executable = "kmeans";
  for (int i = 0; i < 40; ++i) est.observe(cud, 60.0);
  EXPECT_NEAR(est.predict(cud), 60.0, 1e-6);
}

class PredictivePolicyTest : public ::testing::Test {
 protected:
  PredictivePolicyTest() {
    session_.register_machine(cluster::generic_profile(8, 8, 16 * 1024),
                              hpc::SchedulerKind::kSlurm, 8);
  }
  Session session_;
  PilotManager pm_{session_};
};

TEST_F(PredictivePolicyTest, LearnedRuntimesSteerBinding) {
  PilotDescription pd;
  pd.resource = "slurm://beowulf/";
  pd.nodes = 1;
  auto p0 = pm_.submit_pilot(pd);
  auto p1 = pm_.submit_pilot(pd);

  auto estimator = std::make_shared<MovingAverageEstimator>(0.5, 10.0);
  UnitManager um(session_, UnitSchedulingPolicy::kPredictive, estimator);
  um.add_pilot(p0);
  um.add_pilot(p1);

  // Teach the estimator: "slow" runs 100x longer than "fast".
  ComputeUnitDescription slow;
  slow.executable = "slow";
  slow.duration = 300.0;
  slow.memory_mb = 1024;
  ComputeUnitDescription fast = slow;
  fast.executable = "fast";
  fast.duration = 3.0;
  estimator->observe(slow, 300.0);
  estimator->observe(fast, 3.0);

  // One slow unit lands somewhere; the following fast units must all be
  // bound to the *other* pilot (its backlog is predicted tiny).
  auto slow_unit = um.submit(slow);
  std::vector<std::shared_ptr<ComputeUnit>> fast_units;
  for (int i = 0; i < 4; ++i) fast_units.push_back(um.submit(fast));
  int on_other = 0;
  for (const auto& u : fast_units) {
    if (u->pilot_id() != slow_unit->pilot_id()) ++on_other;
  }
  EXPECT_GE(on_other, 3);  // backlog steers away from the slow pilot

  session_.engine().run_until(600.0);
  EXPECT_TRUE(um.all_done());
}

TEST_F(PredictivePolicyTest, ReconcileFeedsObservationsBack) {
  PilotDescription pd;
  pd.resource = "slurm://beowulf/";
  auto pilot = pm_.submit_pilot(pd);
  auto estimator = std::make_shared<MovingAverageEstimator>(0.5, 10.0);
  UnitManager um(session_, UnitSchedulingPolicy::kPredictive, estimator);
  um.add_pilot(pilot);
  ComputeUnitDescription cud;
  cud.executable = "burn";
  cud.duration = 50.0;
  cud.memory_mb = 1024;
  um.submit(cud);
  session_.engine().run_until(200.0);
  ASSERT_TRUE(um.all_done());  // triggers reconcile
  // The estimator learned ~50s (exact: Executing -> Done span).
  EXPECT_NEAR(estimator->predict(cud), 50.0, 1.0);
}

}  // namespace
}  // namespace hoh::pilot

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analytics/kmeans_experiment.h"
#include "common/error.h"
#include "common/random.h"
#include "common/retry.h"
#include "elastic/elastic_controller.h"
#include "elastic/policy.h"
#include "hpc/batch_scheduler.h"
#include "mapreduce/yarn_mr_driver.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"
#include "sim/engine.h"
#include "sim/failure_injector.h"
#include "sim/trace.h"
#include "yarn/resource_manager.h"

namespace hoh {
namespace {

// -------------------------------------------------------- RetryPolicy ---

TEST(RetryPolicyTest, ValidateRejectsNonsense) {
  common::RetryPolicy p;
  EXPECT_NO_THROW(p.validate());
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), common::ConfigError);
  p = {};
  p.multiplier = 0.5;
  EXPECT_THROW(p.validate(), common::ConfigError);
  p = {};
  p.jitter = 1.0;
  EXPECT_THROW(p.validate(), common::ConfigError);
  p = {};
  p.base_backoff = -1.0;
  EXPECT_THROW(p.validate(), common::ConfigError);
}

TEST(RetryPolicyTest, AllowsCountsTotalAttempts) {
  common::RetryPolicy p;
  p.max_attempts = 3;
  EXPECT_TRUE(p.allows(1));
  EXPECT_TRUE(p.allows(3));
  EXPECT_FALSE(p.allows(4));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  common::RetryPolicy p;
  p.base_backoff = 2.0;
  p.multiplier = 2.0;
  p.max_backoff = 10.0;
  p.jitter = 0.0;
  common::Rng rng(1);
  EXPECT_DOUBLE_EQ(p.backoff_for(1, rng), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(2, rng), 4.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(3, rng), 8.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(4, rng), 10.0);  // capped
  EXPECT_DOUBLE_EQ(p.backoff_for(9, rng), 10.0);
}

TEST(RetryPolicyTest, JitterIsBoundedAndSeedDeterministic) {
  common::RetryPolicy p;
  p.base_backoff = 10.0;
  p.multiplier = 1.0;
  p.jitter = 0.25;
  common::Rng a(7), b(7);
  for (int k = 1; k <= 8; ++k) {
    const double da = p.backoff_for(k, a);
    EXPECT_DOUBLE_EQ(da, p.backoff_for(k, b));
    EXPECT_GE(da, 7.5);
    EXPECT_LE(da, 12.5);
  }
}

// -------------------------------------------------------- RetryableOp ---

class RetryableOpTest : public ::testing::Test {
 protected:
  common::RetryPolicy policy() {
    common::RetryPolicy p;
    p.max_attempts = 5;
    p.base_backoff = 10.0;
    p.multiplier = 2.0;
    p.max_backoff = 120.0;
    p.jitter = 0.0;  // deterministic schedule for the assertions below
    return p;
  }
  sim::Engine engine_;
  common::Rng rng_{1};
};

TEST_F(RetryableOpTest, RetriesAfterBackoffUntilSuccess) {
  int attempts_seen = 0;
  bool done_ok = false;
  int done_attempts = 0;
  common::RetryableOp<sim::Engine> op(
      engine_, policy(), rng_, [&](int attempt) { attempts_seen = attempt; },
      [&](bool ok, int attempts) {
        done_ok = ok;
        done_attempts = attempts;
      });
  op.start();  // attempt 1 launches synchronously
  EXPECT_EQ(attempts_seen, 1);
  op.fail();  // retry scheduled for t = 10
  engine_.run_until(5.0);
  EXPECT_EQ(attempts_seen, 1);
  engine_.run_until(15.0);
  EXPECT_EQ(attempts_seen, 2);
  op.fail();  // second backoff doubles: retry at t = 10 + 20
  engine_.run_until(40.0);
  EXPECT_EQ(attempts_seen, 3);
  op.succeed();
  EXPECT_TRUE(op.finished());
  EXPECT_TRUE(op.succeeded());
  EXPECT_TRUE(done_ok);
  EXPECT_EQ(done_attempts, 3);
  op.fail();  // late report after settlement is ignored
  EXPECT_TRUE(op.succeeded());
}

TEST_F(RetryableOpTest, ExhaustsBudgetAndReportsFailure) {
  auto p = policy();
  p.max_attempts = 2;
  int attempts_seen = 0;
  bool finished_called = false;
  bool done_ok = true;
  common::RetryableOp<sim::Engine> op(
      engine_, p, rng_,
      [&](int attempt) {
        attempts_seen = attempt;
      },
      [&](bool ok, int attempts) {
        finished_called = true;
        done_ok = ok;
        EXPECT_EQ(attempts, 2);
      });
  op.start();
  op.fail();
  engine_.run_until(20.0);
  EXPECT_EQ(attempts_seen, 2);
  op.fail();  // out of budget
  EXPECT_TRUE(op.finished());
  EXPECT_FALSE(op.succeeded());
  EXPECT_TRUE(finished_called);
  EXPECT_FALSE(done_ok);
}

TEST_F(RetryableOpTest, AttemptTimeoutCountsAsFailure) {
  auto p = policy();
  p.max_attempts = 2;
  p.attempt_timeout = 3.0;
  int attempts_seen = 0;
  bool done_ok = true;
  common::RetryableOp<sim::Engine> op(
      engine_, p, rng_,
      [&](int attempt) { attempts_seen = attempt; },  // never resolves
      [&](bool ok, int) { done_ok = ok; });
  op.start();
  engine_.run_until(100.0);  // t=3 timeout, t=13 attempt 2, t=16 timeout
  EXPECT_EQ(attempts_seen, 2);
  EXPECT_TRUE(op.finished());
  EXPECT_FALSE(op.succeeded());
  EXPECT_FALSE(done_ok);
}

TEST_F(RetryableOpTest, CancelStopsFutureAttempts) {
  int attempts_seen = 0;
  bool finished_called = false;
  common::RetryableOp<sim::Engine> op(
      engine_, policy(), rng_, [&](int attempt) { attempts_seen = attempt; },
      [&](bool, int) { finished_called = true; });
  op.start();
  op.fail();
  op.cancel();  // before the t = 10 retry fires
  engine_.run_until(100.0);
  EXPECT_EQ(attempts_seen, 1);
  EXPECT_FALSE(finished_called);
}

// ---------------------------------------------------- FailureInjector ---

std::vector<std::pair<double, std::string>> crash_schedule(
    const sim::FailurePlan& plan) {
  sim::Engine engine;
  sim::FailureInjector injector(engine, plan, {"a", "b", "c", "d"});
  std::vector<std::pair<double, std::string>> crashes;
  injector.on_crash([&](const std::string& node) {
    crashes.emplace_back(engine.now(), node);
  });
  injector.arm();
  engine.run_until(50000.0);
  return crashes;
}

TEST(FailureInjectorTest, SamePlanAndSeedReplaysIdentically) {
  sim::FailurePlan plan;
  plan.seed = 11;
  plan.mean_time_to_crash = 200.0;
  plan.mean_time_to_repair = 100.0;
  plan.max_crashes = 8;
  const auto first = crash_schedule(plan);
  const auto second = crash_schedule(plan);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  plan.seed = 12;
  EXPECT_NE(first, crash_schedule(plan));
}

TEST(FailureInjectorTest, MaxCrashesCapsInjection) {
  sim::FailurePlan plan;
  plan.mean_time_to_crash = 50.0;
  plan.mean_time_to_repair = 25.0;
  plan.max_crashes = 3;
  sim::Engine engine;
  sim::FailureInjector injector(engine, plan, {"a", "b", "c", "d"});
  injector.arm();
  engine.run_until(100000.0);
  EXPECT_EQ(injector.counters().crashes, 3);
}

TEST(FailureInjectorTest, StartAfterDelaysFirstEvent) {
  sim::FailurePlan plan;
  plan.mean_time_to_crash = 10.0;  // would fire early without the gate
  plan.start_after = 500.0;
  plan.max_crashes = 4;
  const auto crashes = crash_schedule(plan);
  ASSERT_FALSE(crashes.empty());
  for (const auto& [time, node] : crashes) EXPECT_GE(time, 500.0);
}

TEST(FailureInjectorTest, ManualScheduleDrivesSameDeliveryPath) {
  sim::Engine engine;
  sim::Trace trace;
  sim::FailurePlan plan;  // no stochastic events at all
  sim::FailureInjector injector(engine, plan, {"a", "b"});
  injector.set_trace(&trace);
  injector.schedule_crash(10.0, "b");
  injector.schedule_crash(12.0, "b");  // already down: ignored
  injector.schedule_repair(20.0, "b");
  engine.run_until(15.0);
  EXPECT_TRUE(injector.is_down("b"));
  EXPECT_FALSE(injector.is_down("a"));
  engine.run_until(30.0);
  EXPECT_FALSE(injector.is_down("b"));
  EXPECT_EQ(injector.counters().crashes, 1);
  EXPECT_EQ(injector.counters().repairs, 1);
  ASSERT_EQ(trace.find("failure", "node_crash").size(), 1u);
  EXPECT_EQ(trace.find("failure", "node_crash")[0].attrs.at("node"), "b");
  EXPECT_EQ(trace.find("failure", "node_repair").size(), 1u);
}

TEST(FailureInjectorTest, SlowEpisodeEndsWithFactorOne) {
  sim::Engine engine;
  sim::FailurePlan plan;
  plan.mean_time_to_slow = 100.0;
  plan.slow_factor = 3.0;
  plan.slow_duration = 40.0;
  sim::FailureInjector injector(engine, plan, {"a"});
  std::vector<std::pair<double, double>> calls;  // (time, factor)
  injector.on_slow([&](const std::string&, double factor) {
    calls.emplace_back(engine.now(), factor);
  });
  injector.arm();
  while (calls.size() < 2 && engine.now() < 10000.0) {
    engine.run_until(engine.now() + 50.0);
  }
  ASSERT_GE(calls.size(), 2u);
  EXPECT_DOUBLE_EQ(calls[0].second, 3.0);
  EXPECT_DOUBLE_EQ(calls[1].second, 1.0);
  EXPECT_DOUBLE_EQ(calls[1].first - calls[0].first, 40.0);
  EXPECT_GE(injector.counters().slow_episodes, 1);
}

TEST(FailureInjectorTest, SlowNodeClampAndExecutionScaling) {
  cluster::Node node("n0", cluster::NodeSpec{});
  EXPECT_DOUBLE_EQ(node.speed_factor(), 1.0);
  node.set_speed_factor(2.5);
  EXPECT_DOUBLE_EQ(node.speed_factor(), 2.5);
  node.set_speed_factor(0.5);  // clamps: nodes never run faster than spec
  EXPECT_DOUBLE_EQ(node.speed_factor(), 1.0);
}

// ---------------------------------------- batch starvation regression ---

// A job the live pool can no longer satisfy (its node count exceeds the
// surviving nodes) must not block smaller jobs behind it in the queue —
// the head-of-line skip added with the failure layer.
TEST(BatchStarvationTest, UnsatisfiableHeadJobDoesNotStarveQueue) {
  sim::Engine engine;
  auto profile = cluster::generic_profile(4, 8, 16 * 1024);
  hpc::BatchScheduler sched(engine, profile, 4);
  engine.run_until(5.0);
  sched.fail_node(profile.name + "-n0000");
  ASSERT_EQ(sched.live_node_count(), 3);
  const auto big =
      sched.submit(hpc::BatchJobRequest{"big", 4, 600.0, "q", "", 0}, nullptr);
  const auto small =
      sched.submit(hpc::BatchJobRequest{"small", 1, 60.0, "q", "", 0}, nullptr);
  engine.run_until(engine.now() + 120.0);
  EXPECT_EQ(sched.state(big), hpc::BatchJobState::kPending);
  EXPECT_NE(sched.state(small), hpc::BatchJobState::kPending);
  // Repair restores the pool; the big job finally starts.
  sched.repair_node(profile.name + "-n0000");
  engine.run_until(engine.now() + 120.0);
  EXPECT_EQ(sched.state(big), hpc::BatchJobState::kRunning);
}

// ------------------------------------------------- pilot-layer fixture ---

class PilotRecoveryTest : public ::testing::Test {
 protected:
  PilotRecoveryTest() {
    session_.register_machine(cluster::stampede_profile(),
                              hpc::SchedulerKind::kSlurm, 4);
  }

  pilot::PilotDescription one_node_pilot() {
    pilot::PilotDescription pd;
    pd.resource = "slurm://stampede/";
    pd.nodes = 1;
    pd.runtime = 14400.0;
    return pd;
  }

  common::RetryPolicy fast_policy(int max_attempts = 3) {
    common::RetryPolicy p;
    p.max_attempts = max_attempts;
    p.base_backoff = 5.0;
    p.max_backoff = 30.0;
    p.jitter = 0.0;
    return p;
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

  /// The batch node hosting \p pilot's agent.
  std::string pilot_node(const std::shared_ptr<pilot::Pilot>& pilot) {
    return pilot->agent()->allocation().node_names().front();
  }

  pilot::Session session_;
};

TEST_F(PilotRecoveryTest, FailedPilotIsResubmittedWithSameShape) {
  pilot::PilotManager pm(session_);
  std::shared_ptr<pilot::Pilot> replacement;
  pm.enable_recovery(fast_policy(),
                     [&](const std::shared_ptr<pilot::Pilot>& fresh,
                         const std::shared_ptr<pilot::Pilot>&) {
                       replacement = fresh;
                     });
  auto pilot = pm.submit_pilot(one_node_pilot());
  run_until_active(pilot);
  scheduler().fail_node(pilot_node(pilot));
  EXPECT_EQ(pilot->state(), pilot::PilotState::kFailed);
  run_for(600.0);
  ASSERT_NE(replacement, nullptr);
  EXPECT_NE(replacement->id(), pilot->id());
  EXPECT_EQ(replacement->description().nodes, pilot->description().nodes);
  EXPECT_EQ(replacement->state(), pilot::PilotState::kActive);
  EXPECT_EQ(pm.pilots_resubmitted(), 1u);
  EXPECT_FALSE(session_.trace().find("recovery", "pilot_resubmitted").empty());
}

TEST_F(PilotRecoveryTest, ResubmissionChainRespectsBudget) {
  pilot::PilotManager pm(session_);
  pm.enable_recovery(fast_policy(/*max_attempts=*/1));
  auto pilot = pm.submit_pilot(one_node_pilot());
  run_until_active(pilot);
  scheduler().fail_node(pilot_node(pilot));
  run_for(600.0);
  // One submission allowed in total: the chain is abandoned, not retried.
  EXPECT_EQ(pm.pilots_resubmitted(), 0u);
  EXPECT_FALSE(session_.trace().find("recovery", "pilot_abandoned").empty());
}

TEST_F(PilotRecoveryTest, UnitsRequeueOntoSurvivingPilot) {
  pilot::PilotManager pm(session_);
  pilot::UnitManager um(session_);
  um.enable_recovery(fast_policy());
  auto first = pm.submit_pilot(one_node_pilot());
  auto second = pm.submit_pilot(one_node_pilot());
  um.add_pilot(first);
  um.add_pilot(second);
  std::vector<pilot::ComputeUnitDescription> cuds(8);
  for (auto& cud : cuds) cud.duration = 60.0;
  auto units = um.submit(cuds);
  run_until_active(first);
  run_until_active(second);
  run_for(30.0);  // units dispatched, some executing on each pilot
  scheduler().fail_node(pilot_node(first));
  ASSERT_EQ(first->state(), pilot::PilotState::kFailed);
  while (!um.all_done() && session_.engine().now() < 7200.0) {
    run_for(5.0);
  }
  EXPECT_TRUE(um.all_done());
  for (const auto& unit : units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone) << unit->id();
  }
  EXPECT_GE(um.units_requeued(), 1u);
  EXPECT_EQ(um.units_abandoned(), 0u);
  const auto requeues = session_.trace().find("recovery", "unit_requeued");
  ASSERT_FALSE(requeues.empty());
  EXPECT_EQ(requeues.front().attrs.at("to"), second->id());
  // Every requeued unit's outage span closed when it was re-dispatched.
  for (const auto& span : session_.trace().find_spans("recovery",
                                                      "unit_outage")) {
    EXPECT_GT(span.duration(), 0.0);
  }
}

TEST_F(PilotRecoveryTest, UnitsAbandonedWhenBudgetExhausted) {
  pilot::PilotManager pm(session_);
  pilot::UnitManager um(session_);
  // One execution per unit in total: any pilot loss exhausts the budget.
  um.enable_recovery(fast_policy(/*max_attempts=*/1));
  auto pilot = pm.submit_pilot(one_node_pilot());
  um.add_pilot(pilot);
  pilot::ComputeUnitDescription cud;
  cud.duration = 120.0;
  auto unit = um.submit(cud);
  run_until_active(pilot);
  run_for(30.0);
  scheduler().fail_node(pilot_node(pilot));
  run_for(600.0);
  EXPECT_EQ(unit->state(), pilot::UnitState::kFailed);
  EXPECT_EQ(um.units_requeued(), 0u);
  EXPECT_EQ(um.units_abandoned(), 1u);
  EXPECT_FALSE(session_.trace().find("recovery", "unit_abandoned").empty());
}

TEST_F(PilotRecoveryTest, RespawnedPilotAbsorbsWaitingUnits) {
  // End-to-end: PilotManager resubmission feeds UnitManager recovery.
  // With a single pilot, its units park until the replacement registers.
  pilot::PilotManager pm(session_);
  pilot::UnitManager um(session_);
  um.enable_recovery(fast_policy());
  pm.enable_recovery(fast_policy(),
                     [&](const std::shared_ptr<pilot::Pilot>& fresh,
                         const std::shared_ptr<pilot::Pilot>&) {
                       um.add_pilot(fresh);
                     });
  auto pilot = pm.submit_pilot(one_node_pilot());
  um.add_pilot(pilot);
  std::vector<pilot::ComputeUnitDescription> cuds(4);
  for (auto& cud : cuds) cud.duration = 60.0;
  auto units = um.submit(cuds);
  run_until_active(pilot);
  run_for(30.0);
  scheduler().fail_node(pilot_node(pilot));
  while (!um.all_done() && session_.engine().now() < 14400.0) {
    run_for(10.0);
  }
  EXPECT_TRUE(um.all_done());
  for (const auto& unit : units) {
    EXPECT_EQ(unit->state(), pilot::UnitState::kDone) << unit->id();
  }
  EXPECT_EQ(pm.pilots_resubmitted(), 1u);
  EXPECT_GE(um.units_requeued(), 1u);
}

TEST_F(PilotRecoveryTest, PilotCrashBetweenPollsRechecksTheBarrier) {
  pilot::PilotManager pm(session_);
  pilot::UnitManager um(session_);
  um.enable_recovery(fast_policy());
  auto pilot = pm.submit_pilot(one_node_pilot());
  um.add_pilot(pilot);
  pilot::ComputeUnitDescription cud;
  cud.duration = 600.0;
  auto unit = um.submit(cud);
  run_until_active(pilot);
  run_for(30.0);
  // Parked at kFailed on a live pilot: settled, so the barrier is done.
  ASSERT_TRUE(pilot->agent()->preempt_unit(unit->id()));
  ASSERT_EQ(unit->state(), pilot::UnitState::kFailed);
  EXPECT_TRUE(um.all_done());

  // The crash writes no unit document, yet recovery will revive the
  // unit: the next poll must recheck it rather than keep its answer.
  const std::uint64_t feed = session_.store().open_feed();
  scheduler().fail_node(pilot_node(pilot));
  ASSERT_EQ(pilot->state(), pilot::PilotState::kFailed);
  ASSERT_TRUE(session_.store().drain_feed(feed).empty());
  session_.store().close_feed(feed);
  EXPECT_FALSE(um.all_done());
}

// ------------------------------------------------ elastic failure grow ---

TEST_F(PilotRecoveryTest, CapacityLossBelowFloorForcesGrow) {
  pilot::PilotManager pm(session_);
  auto pilot = pm.submit_pilot(one_node_pilot());
  run_until_active(pilot);
  elastic::ElasticControllerConfig config;
  config.min_nodes = 2;  // the 1-node pilot already sits below the floor
  config.max_nodes = 4;
  elastic::ElasticController controller(
      pm, pilot, std::make_unique<elastic::BacklogPolicy>(), config);
  controller.tick();
  EXPECT_EQ(controller.counters().failure_grows, 1u);
  const auto decisions = session_.trace().find("elastic", "decision");
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.back().attrs.at("reason"),
            "failure-induced-capacity-loss");
  EXPECT_EQ(decisions.back().attrs.at("action"), "grow");
}

// ----------------------------------------------- YARN / MR task retry ---

class YarnRecoveryTest : public ::testing::Test {
 protected:
  YarnRecoveryTest() : machine_(cluster::generic_profile(3, 8, 16 * 1024)) {
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

TEST_F(YarnRecoveryTest, SilentNmCrashIsDetectedByLivenessMonitor) {
  yarn::YarnConfig cfg;
  cfg.nm_liveness_timeout = 30.0;
  yarn::ResourceManager rm(engine_, allocation_, cfg);
  sim::Trace trace;
  rm.set_trace(&trace);
  engine_.run_until(10.0);
  ASSERT_EQ(rm.live_node_count(), 3u);
  rm.node_manager("n1").crash();  // silent: no fail_node call
  engine_.run_until(engine_.now() + 120.0);
  EXPECT_EQ(rm.live_node_count(), 2u);
  const auto lost = trace.find("yarn", "nm_lost");
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost.front().attrs.at("node"), "n1");
  rm.shutdown();
}

TEST_F(YarnRecoveryTest, MrJobSurvivesTaskNodeLossViaRetry) {
  yarn::ResourceManager rm(engine_, allocation_);
  mapreduce::YarnMrDriver driver(rm);
  sim::Trace trace;
  driver.set_trace(&trace);
  bool finished = false;
  mapreduce::YarnMrJobSpec spec;
  spec.map_tasks = 8;  // spread across all three nodes
  spec.reduce_tasks = 2;
  spec.map_task_seconds = 120.0;
  spec.reduce_task_seconds = 10.0;
  const auto app_id = driver.submit(spec, [&] { finished = true; });
  engine_.run_until(60.0);  // maps running on every node
  const auto am_node = rm.application(app_id).am_node;
  for (const auto& node : {"n0", "n1", "n2"}) {
    if (node != am_node) {
      rm.fail_node(node);
      break;
    }
  }
  engine_.run_until(3600.0);
  const auto status = driver.status(app_id);
  EXPECT_TRUE(finished);
  EXPECT_FALSE(status.failed);
  EXPECT_EQ(status.maps_done, 8);
  EXPECT_GT(status.task_retries, 0);
  EXPECT_FALSE(trace.find("mapreduce", "task_retry").empty());
  rm.shutdown();
}

// -------------------------------------------------- keystone scenario ---

// The PR's keystone: a seeded injector kills 1 of the pilot's 8 nodes
// mid-run. With the recovery layer on, the K-Means workload must finish
// with output identical to a failure-free run in at least 9 of 10 seeds;
// with it off, the same fault plan kills the job.
class KeystoneTest : public ::testing::Test {
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

  static analytics::KmeansExperimentConfig faulty_config(std::uint64_t seed,
                                                         bool recovery) {
    auto cfg = base_config();
    cfg.failures = true;
    cfg.failure_plan.seed = seed;
    cfg.failure_plan.mean_time_to_crash = 200.0;
    cfg.failure_plan.mean_time_to_repair = 300.0;
    cfg.failure_plan.max_crashes = 1;
    cfg.failure_plan.start_after = 300.0;
    cfg.recovery = recovery;
    if (recovery) {
      cfg.retry_policy.max_attempts = 3;
      cfg.retry_policy.base_backoff = 5.0;
      cfg.retry_policy.max_backoff = 60.0;
    }
    cfg.allow_failure = !recovery;
    return cfg;
  }
};

TEST_F(KeystoneTest, NodeLossRecoversByteIdenticalInNineOfTenSeeds) {
  const auto baseline = analytics::run_kmeans_experiment(base_config());
  ASSERT_TRUE(baseline.ok);
  ASSERT_FALSE(baseline.output_checksum.empty());
  int identical = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto r =
        analytics::run_kmeans_experiment(faulty_config(seed, true));
    if (r.ok && r.output_checksum == baseline.output_checksum) ++identical;
    EXPECT_EQ(r.failure_counters.crashes, 1) << "seed " << seed;
  }
  EXPECT_GE(identical, 9);
}

TEST_F(KeystoneTest, SameFaultPlanWithoutRecoveryFailsTheJob) {
  const auto r = analytics::run_kmeans_experiment(faulty_config(1, false));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.pilots_resubmitted, 0u);
  EXPECT_EQ(r.units_requeued, 0u);
}

}  // namespace
}  // namespace hoh

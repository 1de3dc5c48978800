#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/string_util.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"

/// Golden schedule digests (StateStore::schedule_digest), one small fixed
/// workload per launch path. The run digest only pins *which* units
/// finished; these pin where each unit was placed and when each of its
/// state writes happened, so a change that moves placement or timing
/// (e.g. a plain node scan that fills the allocation from the other
/// end) fails here even when every unit still completes.

namespace hoh::pilot {
namespace {

class ScheduleDigestGolden : public ::testing::Test {
 protected:
  ScheduleDigestGolden() {
    session_.register_machine(cluster::stampede_profile(),
                              hpc::SchedulerKind::kSlurm, 8);
    session_.register_machine(cluster::wrangler_profile(),
                              hpc::SchedulerKind::kSge, 8);
    session_.create_dedicated_hadoop("wrangler", 3);
  }

  std::shared_ptr<Pilot> pilot(const std::string& resource, int nodes,
                               AgentBackend backend,
                               AgentConfig agent_config = {}) {
    PilotDescription pd;
    pd.resource = resource;
    pd.nodes = nodes;
    pd.runtime = 28800.0;
    pd.backend = backend;
    auto p = pm_.submit_pilot(pd, agent_config);
    um_.add_pilot(p);
    return p;
  }

  static ComputeUnitDescription unit(common::Seconds duration, int cores = 1,
                                     common::MemoryMb memory_mb = 2048) {
    ComputeUnitDescription cud;
    cud.duration = duration;
    cud.cores = cores;
    cud.memory_mb = memory_mb;
    return cud;
  }

  /// Submits \p units, runs until every one is final, and returns the
  /// schedule digest once all of them are Done.
  std::string run(const std::vector<ComputeUnitDescription>& units) {
    auto handles = um_.submit(units);
    run_until_done();
    for (const auto& u : handles) {
      EXPECT_EQ(u->state(), UnitState::kDone) << u->id();
    }
    return digest();
  }

  static std::vector<ComputeUnitDescription> eight_units() {
    return std::vector<ComputeUnitDescription>(8, unit(60.0));
  }

  void run_until_done() {
    while (!um_.all_done() && session_.engine().now() < 100000.0) {
      session_.engine().run_until(session_.engine().now() + 10.0);
    }
  }

  std::string digest() {
    return common::strformat(
        "%016llx",
        static_cast<unsigned long long>(session_.store().schedule_digest()));
  }

  /// Grows \p p by one node, fills both nodes with long units, then
  /// shrinks the grown node with a drain window far shorter than the
  /// units: the drain escalates and requeues the units on the leaving
  /// node.
  std::string drain_timeout_digest(const std::shared_ptr<Pilot>& p,
                                   int units, common::Seconds duration) {
    session_.engine().run_until(600.0);
    EXPECT_EQ(p->state(), PilotState::kActive);
    pm_.grow_pilot(p, 1);
    session_.engine().run_until(session_.engine().now() + 300.0);
    EXPECT_EQ(p->live_nodes(), 2);
    auto handles =
        um_.submit(std::vector<ComputeUnitDescription>(units, unit(duration)));
    session_.engine().run_until(session_.engine().now() + 120.0);
    bool clean = true;
    pm_.shrink_pilot(p, 1, 30.0, [&clean](bool c) { clean = c; });
    run_until_done();
    EXPECT_FALSE(clean);
    EXPECT_EQ(p->agent()->drain_timeouts(), 1u);
    for (const auto& u : handles) {
      EXPECT_EQ(u->state(), UnitState::kDone) << u->id();
    }
    return digest();
  }

  Session session_;
  PilotManager pm_{session_};
  UnitManager um_{session_};
};

TEST_F(ScheduleDigestGolden, PlainWithMpiGang) {
  pilot("slurm://stampede/", 3, AgentBackend::kPlain);
  std::vector<ComputeUnitDescription> units(6, unit(60.0));
  auto mpi = unit(120.0, /*cores=*/24, /*memory_mb=*/8192);
  mpi.is_mpi = true;
  units.push_back(mpi);
  EXPECT_EQ(run(units), "a899acdb53f2526b");
}

TEST_F(ScheduleDigestGolden, YarnModeIOneAmPerUnit) {
  pilot("slurm://stampede/", 2, AgentBackend::kYarnModeI);
  EXPECT_EQ(run(eight_units()), "e8caeb51d3ec2f9f");
}

TEST_F(ScheduleDigestGolden, YarnModeISharedAm) {
  AgentConfig config;
  config.reuse_yarn_app = true;
  pilot("slurm://stampede/", 2, AgentBackend::kYarnModeI, config);
  EXPECT_EQ(run(eight_units()), "367f5fc93a8a70d5");
}

TEST_F(ScheduleDigestGolden, YarnModeII) {
  pilot("sge://wrangler/", 1, AgentBackend::kYarnModeII);
  EXPECT_EQ(run(eight_units()), "442e72394a19df2e");
}

TEST_F(ScheduleDigestGolden, SparkModeI) {
  pilot("slurm://stampede/", 2, AgentBackend::kSparkModeI);
  EXPECT_EQ(run(eight_units()), "87035f8883ac78a7");
}

TEST_F(ScheduleDigestGolden, PlainDrainTimeout) {
  auto p = pilot("slurm://stampede/", 1, AgentBackend::kPlain);
  EXPECT_EQ(drain_timeout_digest(p, 20, 300.0), "d999ea7d558908fb");
}

TEST_F(ScheduleDigestGolden, YarnModeIDrainTimeout) {
  auto p = pilot("slurm://stampede/", 1, AgentBackend::kYarnModeI);
  EXPECT_EQ(drain_timeout_digest(p, 20, 400.0), "ac85b16bf7a5b8c9");
}

}  // namespace
}  // namespace hoh::pilot

#include <gtest/gtest.h>

#include "analytics/workload_gen.h"
#include "common/error.h"
#include "common/statistics.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"

namespace hoh {
namespace {

// --------------------------------------------------- workload generator ---

TEST(WorkloadGenTest, DeterministicAndSized) {
  analytics::WorkloadSpec spec;
  spec.units = 64;
  spec.distribution = analytics::DurationDistribution::kUniform;
  auto a = analytics::generate_workload(spec);
  auto b = analytics::generate_workload(spec);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
  }
}

TEST(WorkloadGenTest, MeansConverge) {
  for (auto dist : {analytics::DurationDistribution::kConstant,
                    analytics::DurationDistribution::kUniform,
                    analytics::DurationDistribution::kBimodal,
                    analytics::DurationDistribution::kHeavyTail}) {
    analytics::WorkloadSpec spec;
    spec.units = 20000;
    spec.distribution = dist;
    spec.mean_seconds = 60.0;
    const auto units = analytics::generate_workload(spec);
    const double mean = analytics::total_work_seconds(units) /
                        static_cast<double>(units.size());
    EXPECT_NEAR(mean, 60.0, 3.5) << analytics::to_string(dist);
    for (const auto& u : units) EXPECT_GT(u.duration, 0.0);
  }
}

TEST(WorkloadGenTest, HeavyTailHasStragglers) {
  analytics::WorkloadSpec spec;
  spec.units = 5000;
  spec.distribution = analytics::DurationDistribution::kHeavyTail;
  spec.mean_seconds = 60.0;
  const auto units = analytics::generate_workload(spec);
  double max_duration = 0.0;
  for (const auto& u : units) {
    max_duration = std::max(max_duration, u.duration);
  }
  EXPECT_GT(max_duration, 10.0 * spec.mean_seconds);
}

TEST(WorkloadGenTest, Validation) {
  analytics::WorkloadSpec bad;
  bad.units = 0;
  EXPECT_THROW(analytics::generate_workload(bad), common::ConfigError);
  bad.units = 1;
  bad.mean_seconds = 0.0;
  EXPECT_THROW(analytics::generate_workload(bad), common::ConfigError);
}

TEST(WorkloadGenTest, RunsThroughPilot) {
  pilot::Session session;
  session.register_machine(cluster::generic_profile(4, 8, 16 * 1024),
                           hpc::SchedulerKind::kSlurm, 4);
  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  pilot::PilotDescription pd;
  pd.resource = "slurm://beowulf/";
  pd.nodes = 2;
  auto pilot = pm.submit_pilot(pd);
  um.add_pilot(pilot);
  analytics::WorkloadSpec spec;
  spec.units = 24;
  spec.distribution = analytics::DurationDistribution::kBimodal;
  spec.mean_seconds = 20.0;
  spec.memory_mb = 1024;
  um.submit(analytics::generate_workload(spec));
  while (!um.all_done() && session.engine().now() < 3600.0) {
    session.engine().run_until(session.engine().now() + 5.0);
  }
  EXPECT_EQ(um.done_count(), 24u);
}

// ------------------------------------------------- MPI gang scheduling ---

TEST(GangSchedulingTest, MpiUnitSpansNodes) {
  pilot::Session session;
  session.register_machine(cluster::stampede_profile(),
                           hpc::SchedulerKind::kSlurm, 4);
  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  pilot::PilotDescription pd;
  pd.resource = "slurm://stampede/";
  pd.nodes = 3;  // 48 cores total, 16 per node
  auto pilot = pm.submit_pilot(pd);
  um.add_pilot(pilot);

  pilot::ComputeUnitDescription mpi;
  mpi.name = "big-mpi";
  mpi.is_mpi = true;
  mpi.cores = 40;  // cannot fit any single 16-core node
  mpi.memory_mb = 30 * 1024;
  mpi.duration = 60.0;
  auto unit = um.submit(mpi);
  while (!um.all_done() && session.engine().now() < 3600.0) {
    session.engine().run_until(session.engine().now() + 5.0);
  }
  EXPECT_EQ(unit->state(), pilot::UnitState::kDone);
  // The placement record lists several nodes.
  std::string placed;
  for (const auto& e : session.trace().find("unit", "placed")) {
    if (e.attrs.at("unit") == unit->id()) placed = e.attrs.at("node");
  }
  EXPECT_NE(placed.find(','), std::string::npos) << placed;
  // All cores returned afterwards.
  for (const auto& node : pilot->agent()->allocation().nodes()) {
    EXPECT_EQ(node->free_cores(), node->spec().cores);
  }
}

TEST(GangSchedulingTest, NonMpiUnitNeverSpansNodes) {
  pilot::Session session;
  session.register_machine(cluster::stampede_profile(),
                           hpc::SchedulerKind::kSlurm, 4);
  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  pilot::PilotDescription pd;
  pd.resource = "slurm://stampede/";
  pd.nodes = 3;
  auto pilot = pm.submit_pilot(pd);
  um.add_pilot(pilot);

  pilot::ComputeUnitDescription serial;
  serial.cores = 40;  // too big for one node and NOT MPI
  serial.memory_mb = 1024;
  serial.duration = 10.0;
  auto unit = um.submit(serial);
  session.engine().run_until(600.0);
  // Stays queued forever (never placed, never done).
  EXPECT_EQ(unit->state(), pilot::UnitState::kAgentScheduling);
  EXPECT_EQ(pilot->agent()->units_queued(), 1u);
}

}  // namespace
}  // namespace hoh

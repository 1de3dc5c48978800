#include <gtest/gtest.h>

#include <utility>

#include "analytics/kmeans_experiment.h"

/// Rollup parity (DESIGN.md §13): trace rollup decides only what the
/// trace stores. No simulation decision reads the trace, so a cell run
/// with the "unit" category rolled up completes the same units
/// (output_checksum) on the same schedule (schedule_digest) as the run
/// that keeps every event.

namespace hoh::analytics {
namespace {

/// The small scale cell: 100 nodes, 2 iterations of 250-unit waves.
KmeansExperimentConfig scale_cell() {
  KmeansExperimentConfig cfg;
  cfg.machine = cluster::generic_profile();
  cfg.scheduler = hpc::SchedulerKind::kSlurm;
  cfg.scenario = scenario_1m_points();
  cfg.scenario.clusters = 100;
  cfg.scenario.iterations = 2;
  cfg.nodes = 100;
  cfg.tasks = 250;
  cfg.spawn_latency = 0.001;
  cfg.pilot_runtime = 14 * 24 * 3600.0;
  return cfg;
}

/// An elastic cell under the deadline policy, whose backlog pricing
/// reads the Unit-Manager's learned runtimes.
KmeansExperimentConfig deadline_cell() {
  KmeansExperimentConfig cfg;
  cfg.machine = cluster::stampede_profile();
  cfg.scheduler = hpc::SchedulerKind::kSlurm;
  cfg.scenario = scenario_100k_points();
  cfg.nodes = 4;
  cfg.tasks = 512;
  cfg.elastic = true;
  cfg.elastic_policy.name = "deadline";
  cfg.elastic_policy.params["deadline"] = 6000.0;
  cfg.elastic_config.min_nodes = 4;
  cfg.elastic_config.max_nodes = 16;
  cfg.elastic_config.sample_interval = 30.0;
  return cfg;
}

/// Runs \p cfg with rollup off and on; both runs must agree.
std::pair<KmeansExperimentResult, KmeansExperimentResult> run_both(
    KmeansExperimentConfig cfg) {
  cfg.trace_rollup = false;
  const auto off = run_kmeans_experiment(cfg);
  cfg.trace_rollup = true;
  const auto on = run_kmeans_experiment(cfg);
  EXPECT_TRUE(off.ok);
  EXPECT_TRUE(on.ok);
  EXPECT_EQ(on.units_completed, off.units_completed);
  EXPECT_EQ(on.output_checksum, off.output_checksum);
  EXPECT_EQ(on.schedule_digest, off.schedule_digest);
  EXPECT_EQ(on.engine_events, off.engine_events);
  return {off, on};
}

TEST(RollupParityTest, ScaleCellIsRollupIndependent) {
  const auto [off, on] = run_both(scale_cell());
  EXPECT_EQ(off.units_completed, 1000u);
}

TEST(RollupParityTest, DeadlineElasticCellIsRollupIndependent) {
  const auto [off, on] = run_both(deadline_cell());
  EXPECT_EQ(on.elastic_counters.grow_decisions,
            off.elastic_counters.grow_decisions);
  EXPECT_EQ(on.elastic_counters.shrink_decisions,
            off.elastic_counters.shrink_decisions);
  // The recorded rollup-off run: parity must come from rollup-on
  // matching it, not from both runs moving together.
  EXPECT_EQ(off.output_checksum, "235409013b2e2349");
  EXPECT_EQ(off.schedule_digest, "32034ef41608eae0");
  EXPECT_EQ(off.engine_events, 12765u);
  EXPECT_EQ(off.elastic_counters.grow_decisions, 4u);
}

}  // namespace
}  // namespace hoh::analytics

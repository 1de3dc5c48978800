#include "analytics/experiment_config.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace hoh::analytics {
namespace {

TEST(ExperimentConfigTest, DefaultsApplied) {
  const auto cfg = kmeans_config_from_json(common::Json::parse("{}"));
  EXPECT_EQ(cfg.machine.name, "stampede");
  EXPECT_EQ(cfg.scenario.points, 1'000'000);
  EXPECT_FALSE(cfg.yarn_stack);
  EXPECT_EQ(cfg.nodes, 1);
  EXPECT_EQ(cfg.tasks, 8);
}

TEST(ExperimentConfigTest, FullObjectParsed) {
  const auto cfg = kmeans_config_from_json(common::Json::parse(R"({
    "machine": "wrangler", "nodes": 3, "tasks": 32,
    "stack": "rp-yarn", "scenario": "100k",
    "op_cost": 1e-5, "shuffle_amplification": 2.0,
    "reuse_yarn_app": true
  })"));
  EXPECT_EQ(cfg.machine.name, "wrangler");
  EXPECT_EQ(cfg.scheduler, hpc::SchedulerKind::kSge);
  EXPECT_EQ(cfg.nodes, 3);
  EXPECT_EQ(cfg.tasks, 32);
  EXPECT_TRUE(cfg.yarn_stack);
  EXPECT_EQ(cfg.scenario.points, 100'000);
  EXPECT_DOUBLE_EQ(cfg.op_cost, 1e-5);
  EXPECT_DOUBLE_EQ(cfg.shuffle_amplification, 2.0);
  EXPECT_TRUE(cfg.reuse_yarn_app);
}

TEST(ExperimentConfigTest, CustomScenarioObject) {
  const auto cfg = kmeans_config_from_json(common::Json::parse(R"({
    "scenario": {"points": 250000, "clusters": 200, "iterations": 4}
  })"));
  EXPECT_EQ(cfg.scenario.points, 250'000);
  EXPECT_EQ(cfg.scenario.clusters, 200);
  EXPECT_EQ(cfg.scenario.iterations, 4);
  EXPECT_NE(cfg.scenario.label.find("250000"), std::string::npos);
}

TEST(ExperimentConfigTest, RejectsBadValues) {
  EXPECT_THROW(kmeans_config_from_json(
                   common::Json::parse(R"({"machine": "mars"})")),
               common::ConfigError);
  EXPECT_THROW(kmeans_config_from_json(
                   common::Json::parse(R"({"stack": "mesos"})")),
               common::ConfigError);
  EXPECT_THROW(kmeans_config_from_json(
                   common::Json::parse(R"({"scenario": "5k"})")),
               common::ConfigError);
  EXPECT_THROW(kmeans_config_from_json(
                   common::Json::parse(R"({"scenario": 7})")),
               common::ConfigError);
  EXPECT_THROW(kmeans_config_from_json(
                   common::Json::parse(R"({"nodes": 0})")),
               common::ConfigError);
  EXPECT_THROW(kmeans_config_from_json(
                   common::Json::parse(R"({"scenario": {"points": 0,
                                          "clusters": 5}})")),
               common::ConfigError);
  EXPECT_THROW(kmeans_config_from_json(common::Json::parse("[1,2]")),
               common::ConfigError);
  EXPECT_THROW(kmeans_config_from_json(common::Json::parse(
                   R"({"tenants": {"list": [{"id": "a"}, {"id": "a"}]}})")),
               common::ConfigError);
}

TEST(ExperimentConfigTest, ElasticSectionParsed) {
  const auto cfg = kmeans_config_from_json(common::Json::parse(R"({
    "nodes": 2, "tasks": 64, "stack": "rp-yarn",
    "elastic": {"policy": "utilization",
                "params": {"high_watermark": 0.9, "cooldown": 60},
                "sample_interval": 15, "max_nodes": 6,
                "drain_timeout": 120}
  })"));
  EXPECT_TRUE(cfg.elastic);
  EXPECT_EQ(cfg.elastic_policy.name, "utilization");
  EXPECT_DOUBLE_EQ(cfg.elastic_policy.params.at("high_watermark"), 0.9);
  EXPECT_DOUBLE_EQ(cfg.elastic_policy.params.at("cooldown"), 60.0);
  EXPECT_DOUBLE_EQ(cfg.elastic_config.sample_interval, 15.0);
  EXPECT_EQ(cfg.elastic_config.min_nodes, 2);  // defaults to nodes
  EXPECT_EQ(cfg.elastic_config.max_nodes, 6);
  EXPECT_DOUBLE_EQ(cfg.elastic_config.drain_timeout, 120.0);
}

TEST(ExperimentConfigTest, ElasticSectionRejectsBadValues) {
  // Unknown policy name.
  EXPECT_THROW(kmeans_config_from_json(common::Json::parse(
                   R"({"elastic": {"policy": "oracle"}})")),
               common::ConfigError);
  // Unknown policy parameter.
  EXPECT_THROW(kmeans_config_from_json(common::Json::parse(
                   R"({"elastic": {"policy": "backlog",
                       "params": {"warp_factor": 9}}})")),
               common::ConfigError);
  // max_nodes below the base allocation.
  EXPECT_THROW(kmeans_config_from_json(common::Json::parse(
                   R"({"nodes": 4, "elastic": {"max_nodes": 2}})")),
               common::ConfigError);
  // Not an object.
  EXPECT_THROW(kmeans_config_from_json(
                   common::Json::parse(R"({"elastic": "yes"})")),
               common::ConfigError);
}

TEST(ExperimentConfigTest, PlanParsing) {
  const auto plan = experiment_plan_from_json(common::Json::parse(R"({
    "experiments": [
      {"machine": "stampede", "tasks": 8},
      {"machine": "wrangler", "tasks": 16}
    ]
  })"));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].machine.name, "stampede");
  EXPECT_EQ(plan[1].tasks, 16);

  EXPECT_THROW(experiment_plan_from_json(common::Json::parse("{}")),
               common::ConfigError);
  EXPECT_THROW(experiment_plan_from_json(
                   common::Json::parse(R"({"experiments": []})")),
               common::ConfigError);
}

/// Strict plan parsing (hohsim --strict): an unknown key is a hard
/// ConfigError instead of a warning.
TEST(ExperimentConfigTest, StrictPlanParsingRejectsUnknownKeys) {
  // A misspelt knob, and a state-store shard count, which the one-lock
  // store does not have.
  for (const std::string key : {"spawn_latencyy", "store_shards"}) {
    const auto doc = common::Json::parse(
        R"({"experiments": [{"machine": "generic", "nodes": 1, "tasks": 2,
            "stack": "rp", "scenario": "10k", ")" + key + R"(": 4}]})");
    EXPECT_NO_THROW(experiment_plan_from_json(doc)) << key;
    set_strict_plan_parsing(true);
    EXPECT_THROW(experiment_plan_from_json(doc), common::ConfigError) << key;
    set_strict_plan_parsing(false);
  }
  // Correctly-spelled scale knobs parse in strict mode.
  const char* good = R"({"experiments": [
      {"machine": "generic", "nodes": 1, "tasks": 2, "stack": "rp",
       "scenario": "10k", "spawn_latency": 0.01, "trace_rollup": true,
       "pilot_runtime": 1209600}]})";
  set_strict_plan_parsing(true);
  const auto cfgs = experiment_plan_from_json(common::Json::parse(good));
  set_strict_plan_parsing(false);
  ASSERT_EQ(cfgs.size(), 1u);
  EXPECT_DOUBLE_EQ(cfgs[0].spawn_latency, 0.01);
  EXPECT_TRUE(cfgs[0].trace_rollup);
  EXPECT_DOUBLE_EQ(cfgs[0].pilot_runtime, 1209600.0);
}

TEST(ExperimentConfigTest, ResultRoundTripsThroughJsonText) {
  KmeansExperimentConfig cfg;
  cfg.machine = cluster::stampede_profile();
  cfg.scenario = scenario_10k_points();
  cfg.nodes = 2;
  cfg.tasks = 16;
  cfg.yarn_stack = true;
  KmeansExperimentResult result;
  result.ok = true;
  result.time_to_completion = 987.5;
  result.units_completed = 64;
  const auto parsed =
      common::Json::parse(result_to_json(cfg, result).dump());
  EXPECT_EQ(parsed.at("machine").as_string(), "stampede");
  EXPECT_EQ(parsed.at("stack").as_string(), "rp-yarn");
  EXPECT_TRUE(parsed.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(parsed.at("time_to_completion_s").as_number(), 987.5);
  EXPECT_EQ(parsed.at("units_completed").as_int(), 64);
  EXPECT_FALSE(parsed.contains("elastic"));

  cfg.elastic = true;
  cfg.elastic_config.max_nodes = 6;
  result.peak_nodes = 5;
  result.elastic_counters.grow_decisions = 3;
  const auto with_elastic =
      common::Json::parse(result_to_json(cfg, result).dump());
  EXPECT_EQ(with_elastic.at("elastic").at("policy").as_string(), "backlog");
  EXPECT_EQ(with_elastic.at("elastic").at("peakNodes").as_int(), 5);
  EXPECT_EQ(with_elastic.at("elastic")
                .at("counters")
                .at("growDecisions")
                .as_int(),
            3);
}

TEST(ExperimentConfigTest, ParsedConfigRunsEndToEnd) {
  const auto cfg = kmeans_config_from_json(common::Json::parse(R"({
    "machine": "generic", "nodes": 2, "tasks": 8,
    "scenario": {"points": 10000, "clusters": 10}
  })"));
  const auto result = run_kmeans_experiment(cfg);
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.time_to_completion, 0.0);
}

}  // namespace
}  // namespace hoh::analytics

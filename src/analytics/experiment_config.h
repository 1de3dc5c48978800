#pragma once

#include <vector>

#include "analytics/kmeans_experiment.h"
#include "common/json.h"

/// \file experiment_config.h
/// JSON (de)serialization for K-Means experiment plans, so experiments
/// can be described in files and driven by the `hohsim` CLI:
///
/// {
///   "experiments": [
///     {"machine": "stampede", "nodes": 3, "tasks": 32,
///      "stack": "rp-yarn", "scenario": "1m"},
///     {"machine": "wrangler", "nodes": 1, "tasks": 8,
///      "stack": "rp", "scenario": {"points": 250000, "clusters": 200}}
///   ]
/// }

namespace hoh::analytics {

/// Parses one experiment object. Recognized fields: machine
/// ("stampede" | "wrangler" | "generic"), nodes, tasks, stack ("rp" |
/// "rp-yarn"), scenario ("10k" | "100k" | "1m" or an object with points/
/// clusters and optional iterations), op_cost, shuffle_amplification,
/// reuse_yarn_app, and an optional "elastic" object {policy, params,
/// sample_interval, min_nodes, max_nodes, drain_timeout} that enables an
/// ElasticController over the cell (min/max default to nodes; max_nodes
/// below nodes throws). An optional "failures" object {seed,
/// mean_time_to_crash, mean_time_to_repair, mean_time_to_slow,
/// slow_factor, slow_duration, max_crashes, start_after} arms a
/// FailureInjector over the batch pool, and an optional "recovery"
/// object {max_attempts, base_backoff, multiplier, max_backoff, jitter}
/// enables pilot resubmission + unit requeue under that retry policy.
/// Scale knobs (DESIGN.md §13): "spawn_latency" (agent task-spawner
/// latency override), "trace_rollup" (fold per-unit trace events into
/// counters), "pilot_runtime" (pilot walltime request in simulated
/// seconds).
/// Missing fields keep defaults; unknown machine/stack/scenario/policy
/// values throw ConfigError.
KmeansExperimentConfig kmeans_config_from_json(const common::Json& doc);

/// Strict plan parsing (hohsim --strict): unknown plan keys become
/// ConfigError instead of warnings, so CI catches a typo ("tenant" for
/// "tenants") as a failed run rather than a silently ignored section.
/// Process-wide; default off.
void set_strict_plan_parsing(bool strict);
bool strict_plan_parsing();

/// Parses {"experiments": [...]} into a plan.
std::vector<KmeansExperimentConfig> experiment_plan_from_json(
    const common::Json& doc);

/// Serializes a finished cell for machine-readable output.
common::Json result_to_json(const KmeansExperimentConfig& config,
                            const KmeansExperimentResult& result);

}  // namespace hoh::analytics

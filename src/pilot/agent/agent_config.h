#pragma once

#include <string>

#include "common/control_plane.h"
#include "common/units.h"
#include "spark/standalone.h"
#include "yarn/yarn_cluster.h"

/// \file agent_config.h
/// Tuning knobs of the RADICAL-Pilot agent and its launch methods.

namespace hoh::pilot {

struct AgentConfig {
  /// Inert: the agent always runs the watch plane (DESIGN.md §10). Kept
  /// only for the perfbench/ caller that still assigns it.
  common::ControlPlane control_plane = common::ControlPlane::kWatch;

  /// Drain re-check cadence: while nodes are decommissioning, the agent
  /// re-checks drain progress this often (bounded to the drain window).
  common::Seconds poll_interval = 1.0;

  /// Safety-net sweep interval. If no watch event arrives (e.g. a
  /// notification was consumed while the agent was inactive), the agent
  /// still re-checks its store queue this often.
  common::Seconds watch_fallback_interval = 60.0;

  /// Stage-In/Out workers: how many file transfers the agent's staging
  /// components run concurrently (additional transfers queue).
  int max_concurrent_staging = 4;

  /// Heartbeat Monitor cadence: the agent writes a liveness record to
  /// the shared store so client-side components can detect dead agents.
  common::Seconds heartbeat_interval = 10.0;

  /// Plain launch methods. The Task Spawner is a single component
  /// (paper Fig. 3): it launches one unit at a time, so spawn latency is
  /// *serialized* across concurrently-dispatched units — the agent-side
  /// scaling bottleneck that caps plain-RP speedup at high task counts.
  common::Seconds spawn_latency = 0.2;    // fork/exec of one task
  common::Seconds mpiexec_latency = 1.0;  // mpiexec/aprun startup

  /// Serialized `yarn jar` submission latency per unit on the YARN path
  /// (the CLI round trip; the AM negotiation afterwards is parallel).
  common::Seconds yarn_submit_latency = 0.3;

  /// Per-unit runtime-environment load on the *plain* path (the task's
  /// interpreter and modules read through the machine's shared
  /// filesystem). Workload benches override this from the cost model.
  common::Seconds env_load_seconds = 0.5;

  /// YARN launch method: the paper's wrapper script that builds a
  /// RADICAL-Pilot environment inside the container. The first unit on a
  /// node pays the full localization; later units on that node hit the
  /// NM's localization cache.
  common::Seconds wrapper_setup_time = 18.0;
  common::Seconds wrapper_cached_time = 8.0;

  /// Extension (paper SS-V future work): keep one YARN application (one
  /// AM) alive for the whole pilot and run every unit in containers of
  /// that app, instead of one AM per unit.
  bool reuse_yarn_app = false;

  /// Extension: derive preferred nodes for units from HDFS block
  /// locations of their staged inputs.
  bool data_aware_scheduling = false;

  /// Backend cluster configurations for Mode I bootstraps.
  yarn::YarnClusterConfig yarn;
  spark::SparkConfig spark;
};

}  // namespace hoh::pilot

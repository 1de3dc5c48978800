#pragma once

#include <string>

#include <cstdint>

#include "analytics/kmeans_cost.h"
#include "common/retry.h"
#include "elastic/elastic_controller.h"
#include "hpc/frontends.h"
#include "net/socket_transport.h"
#include "pilot/descriptions.h"
#include "sim/failure_injector.h"
#include "tenant/submission_gateway.h"

/// \file kmeans_experiment.h
/// Turn-key driver for one cell of the paper's Fig. 6: runs the K-Means
/// benchmark end-to-end through the *real simulated middleware* — batch
/// scheduler, pilot agent, (for the YARN stack) Mode-I bootstrap, YARN
/// AM/container allocation per Compute-Unit — with per-task durations
/// from the workload cost model. Each iteration submits one wave of map
/// units and one wave of reduce units, barrier-synchronized the way the
/// paper's benchmark ran.

namespace hoh::analytics {

struct KmeansExperimentConfig {
  cluster::MachineProfile machine;
  hpc::SchedulerKind scheduler = hpc::SchedulerKind::kSlurm;
  KmeansScenario scenario;
  int nodes = 1;
  int tasks = 8;

  /// true = RP-YARN (Mode I: bootstrap YARN/HDFS on the allocation, CUs
  /// as YARN applications, local-disk I/O); false = plain RADICAL-Pilot
  /// (fork launch method, shared-filesystem I/O).
  bool yarn_stack = false;

  /// Workload cost-model knobs (see KmeansRunConfig).
  double op_cost = 4.0e-5;
  double shuffle_amplification = 4.0;

  /// Agent calibration (paper-era RADICAL-Pilot defaults).
  common::Seconds spawn_latency = 1.2;    // serialized Task Spawner
  common::Seconds yarn_submit_latency = 0.3;

  /// Extension toggle: reuse one Application Master for all units.
  bool reuse_yarn_app = false;

  /// Container memory for YARN-path units.
  common::MemoryMb unit_memory_mb = 0;  // 0 = stack default

  /// Elasticity (plan "elastic" section): when enabled the pilot starts
  /// at `nodes` and an ElasticController resizes it up to
  /// `elastic.max_nodes` under the named policy. The machine pool is
  /// sized to max_nodes so growth has somewhere to go.
  bool elastic = false;
  elastic::ElasticPolicySpec elastic_policy;
  elastic::ElasticControllerConfig elastic_config;

  /// Fault injection (plan "failures" section): a seeded crash / repair /
  /// slow-node schedule delivered to the machine's batch pool, so a
  /// mid-run node loss kills the placeholder job exactly the way a real
  /// HPC node failure would.
  bool failures = false;
  sim::FailurePlan failure_plan;

  /// Recovery (plan "recovery" section): pilot resubmission
  /// (PilotManager), unit requeue onto survivors (UnitManager), both
  /// under this retry budget. Off = the ablation baseline where a node
  /// loss fails the job.
  bool recovery = false;
  common::RetryPolicy retry_policy;

  /// Multi-tenancy (plan "tenants" section): when enabled, unit waves
  /// are submitted through a SubmissionGateway (units assigned to the
  /// listed tenants round-robin), so admission control, fair-share
  /// ordering and per-tenant accounting apply. When disabled — the
  /// default — no gateway object exists and submission is byte-identical
  /// to the pre-tenant path (single anonymous submitter).
  bool tenants = false;
  tenant::GatewayConfig gateway_config;
  std::vector<tenant::TenantSpec> tenant_specs;

  /// Plan "tenants.journal": when non-empty, the gateway's accounting
  /// journal is written to this path at the end of the run.
  std::string accounting_journal;

  /// Plan "allow_failure": a cell expected to fail (e.g. the recovery-off
  /// arm of the fault ablation) does not fail the whole hohsim run.
  bool allow_failure = false;

  /// Plan "store_shards": StateStore shard count for this cell
  /// (DESIGN.md §13). Digests are shard-count independent, which the CI
  /// scale job asserts by running the same cell sharded and unsharded.
  int store_shards = 1;

  /// Plan "trace_rollup": fold per-unit trace events into O(1) counters
  /// (DESIGN.md §13). Required at the 1M-unit scale — the raw event list
  /// would dominate peak RSS. Digests are unaffected (the checksum is
  /// computed from store documents, not the trace).
  bool trace_rollup = false;

  /// Plan "transport": "inprocess" (default) | "socket" (DESIGN.md §14).
  /// socket swaps the session's message boundary onto a loopback-TCP
  /// SocketTransport (epoll reactor) before any endpoint registers.
  /// Digests must be byte-identical across the two modes — the CI
  /// socket-parity job's gate.
  std::string transport = "inprocess";

  /// Plan "net" section: socket-transport knobs (bind host/port, the
  /// reconnect RetryPolicy and its seed). Ignored for "inprocess".
  net::SocketTransportConfig net;

  /// Plan "pilot_runtime": pilot walltime request in simulated seconds.
  /// The 48 h default covers every paper-scale cell; the web-scale
  /// keystone needs ~5 simulated days for 20 iterations of 50k units, so
  /// its plan raises this — otherwise the batch system walltime-kills
  /// the pilot mid-trajectory (DESIGN.md §13).
  common::Seconds pilot_runtime = 48 * 3600.0;
};

struct KmeansExperimentResult {
  /// Agent start (placeholder job running) to last unit done — the
  /// paper's time-to-completion, which for RP-YARN "include[s] the time
  /// required to download and start the YARN cluster".
  double time_to_completion = 0.0;

  /// Agent start to first unit executing (Fig. 5 metric).
  double agent_startup = 0.0;

  /// Mean unit-startup span across all units (Fig. 5 inset metric).
  double mean_unit_startup = 0.0;

  std::size_t units_completed = 0;
  bool ok = false;

  /// Controller counters (all zeros when elasticity was disabled).
  elastic::ElasticCounters elastic_counters;
  int peak_nodes = 0;  // largest allocation the pilot held

  /// Fault & recovery accounting (all zeros without a failure plan).
  sim::FailureCounters failure_counters;
  std::size_t pilots_resubmitted = 0;
  std::size_t units_requeued = 0;
  std::size_t units_abandoned = 0;

  /// Deterministic digest (FNV-1a over the sorted names of completed
  /// units). A recovered run must reproduce the no-failure digest —
  /// the "byte-identical output" check of the fault ablation.
  std::string output_checksum;

  /// Engine events executed over the whole run (DESIGN.md §10: with the
  /// event-driven control plane this grows with work, not with virtual
  /// time).
  std::uint64_t engine_events = 0;

  /// Multi-tenant accounting (null Json when the cell had no tenants
  /// section): the gateway's per-tenant aggregates, without the journal.
  common::Json tenant_accounting;
  std::size_t units_preempted = 0;
};

KmeansExperimentResult run_kmeans_experiment(
    const KmeansExperimentConfig& config);

}  // namespace hoh::analytics

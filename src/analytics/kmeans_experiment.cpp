#include "analytics/kmeans_experiment.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/error.h"
#include "common/statistics.h"
#include "common/string_util.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"

namespace hoh::analytics {

KmeansExperimentResult run_kmeans_experiment(
    const KmeansExperimentConfig& config) {
  pilot::Session session;
  // Socket mode (plan "transport": "socket"): swap the message boundary
  // onto loopback TCP before any component registers an endpoint. The
  // synchronous-at-call-site contract keeps the simulation digest
  // byte-identical to in-process mode (DESIGN.md §14).
  if (config.transport == "socket") {
    session.set_transport(std::make_unique<net::SocketTransport>(config.net));
  }
  if (config.trace_rollup) session.trace().enable_rollup("unit");
  const int pool_nodes =
      config.elastic ? std::max(config.nodes, config.elastic_config.max_nodes)
                     : config.nodes;
  session.register_machine(config.machine, config.scheduler, pool_nodes);

  // Workload cost model for this cell.
  KmeansRunConfig run;
  run.machine = &session.saga().resource(config.machine.name).profile;
  run.nodes = config.nodes;
  run.tasks = config.tasks;
  run.yarn_stack = config.yarn_stack;
  run.op_cost = config.op_cost;
  run.shuffle_amplification = config.shuffle_amplification;
  const KmeansPhaseDurations durations =
      kmeans_phase_durations(config.scenario, run);

  // Agent configuration from the model + paper-era calibration.
  pilot::AgentConfig agent;
  agent.spawn_latency = config.spawn_latency;
  agent.yarn_submit_latency = config.yarn_submit_latency;
  agent.env_load_seconds = durations.env_load_per_task;
  agent.wrapper_setup_time = durations.wrapper_per_node;
  agent.wrapper_cached_time = 1.0;
  agent.reuse_yarn_app = config.reuse_yarn_app;
  agent.yarn.yarn.am_launch_time = 10.0;
  agent.yarn.yarn.container_launch_time = 4.0;

  pilot::PilotDescription pd;
  pd.resource = hpc::to_string(config.scheduler) + "://" +
                config.machine.name + "/";
  pd.nodes = config.nodes;
  pd.runtime = config.pilot_runtime;
  pd.backend = config.yarn_stack ? pilot::AgentBackend::kYarnModeI
                                 : pilot::AgentBackend::kPlain;

  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);

  // Multi-tenant front door (plan "tenants" section). Constructed only
  // when configured, so tenant-less plans run the exact pre-gateway
  // code path (digest parity by construction).
  std::unique_ptr<tenant::SubmissionGateway> gateway;
  if (config.tenants) {
    if (config.tenant_specs.empty()) {
      throw common::ConfigError("tenants enabled but tenant list is empty");
    }
    gateway = std::make_unique<tenant::SubmissionGateway>(
        um, config.gateway_config);
    for (const auto& spec : config.tenant_specs) gateway->add_tenant(spec);
  }

  // Fault injection against the batch pool: a crash kills whatever
  // placeholder job holds the node, exactly like a real HPC node loss.
  std::unique_ptr<sim::FailureInjector> injector;
  if (config.failures) {
    auto& entry = session.saga().resource(config.machine.name);
    hpc::BatchScheduler* sched = entry.scheduler.get();
    injector = std::make_unique<sim::FailureInjector>(
        session.engine(), config.failure_plan, sched->node_names());
    injector->set_trace(&session.trace());
    injector->on_crash(
        [sched](const std::string& n) { sched->fail_node(n); });
    injector->on_repair(
        [sched](const std::string& n) { sched->repair_node(n); });
    injector->on_slow([sched](const std::string& n, double factor) {
      if (auto* node = sched->node(n)) node->set_speed_factor(factor);
    });
    injector->arm();
  }

  auto pilot_handle = pm.submit_pilot(pd, agent);
  um.add_pilot(pilot_handle);

  if (config.recovery) {
    // Pilot resubmission: rebind the experiment to the replacement so
    // the elastic controller / metric loops follow it; the UnitManager
    // learns about it so parked units drain onto it.
    pm.enable_recovery(
        config.retry_policy,
        [&pilot_handle, &um](const std::shared_ptr<pilot::Pilot>& replacement,
                             const std::shared_ptr<pilot::Pilot>&) {
          pilot_handle = replacement;
          um.add_pilot(replacement);
        },
        config.failure_plan.seed);
    um.enable_recovery(config.retry_policy, config.failure_plan.seed + 1);
  }

  // Wait until the pilot is active. With recovery on, a pilot that dies
  // here may still be replaced (pilot_handle is rebound by the respawn
  // callback), so only a final state with recovery off ends the wait.
  const double kMaxSimTime = 14 * 24 * 3600.0;
  while (pilot_handle->state() != pilot::PilotState::kActive &&
         (config.recovery || !pilot::is_final(pilot_handle->state())) &&
         session.engine().now() < kMaxSimTime) {
    session.engine().run_until(session.engine().now() + 5.0);
  }
  KmeansExperimentResult result;
  if (pilot_handle->state() != pilot::PilotState::kActive) {
    result.engine_events = session.engine().executed();
    return result;
  }

  std::unique_ptr<elastic::ElasticController> controller;
  if (config.elastic) {
    controller = std::make_unique<elastic::ElasticController>(
        pm, pilot_handle, elastic::make_policy(config.elastic_policy),
        config.elastic_config, um.estimator_ptr());
    controller->start();
  }
  result.peak_nodes = pilot_handle->live_nodes();

  // YARN-path units use 1 GiB containers (+1 GiB AM each) so a full
  // 32-task wave fits the 3-node cluster without a second wave; the
  // *memory pressure* of the real JVM footprint is modelled in the cost
  // model, not the container ask (matching how the paper's runs were
  // configured vs. what the nodes actually experienced).
  const common::MemoryMb memory =
      config.unit_memory_mb > 0 ? config.unit_memory_mb
                                : (config.yarn_stack ? 1024 : 2048);

  std::vector<std::string> completed_names;
  auto run_phase = [&](const std::string& name, double duration) {
    std::vector<pilot::ComputeUnitDescription> cuds;
    cuds.reserve(static_cast<std::size_t>(config.tasks));
    for (int t = 0; t < config.tasks; ++t) {
      pilot::ComputeUnitDescription cud;
      cud.name = name + "-" + std::to_string(t);
      cud.executable = "python";
      cud.arguments = {"kmeans.py", "--phase", name};
      cud.cores = 1;
      cud.memory_mb = memory;
      cud.duration = duration;
      cuds.push_back(std::move(cud));
    }
    if (gateway != nullptr) {
      // Tenant path: units enter through admission control, assigned to
      // the listed tenants round-robin. The barrier additionally waits
      // for the gateway to drain (queued units are invisible to
      // um.all_done() until dispatched).
      for (std::size_t i = 0; i < cuds.size(); ++i) {
        const auto& spec = config.tenant_specs[i % config.tenant_specs.size()];
        gateway->submit(spec.id, cuds[i]);
      }
      while (!(um.all_done() && gateway->quiescent()) &&
             session.engine().now() < kMaxSimTime) {
        session.engine().run_until(session.engine().now() + 5.0);
        result.peak_nodes =
            std::max(result.peak_nodes, pilot_handle->live_nodes());
      }
      return;  // completed names are collected from the gateway at the end
    }
    auto units = um.submit(cuds);
    // Barrier: the paper's benchmark synchronizes between phases. With
    // recovery, all_done() holds the barrier while requeues are in
    // flight, so a mid-phase pilot loss stalls — not ends — the phase.
    while (!um.all_done() && session.engine().now() < kMaxSimTime) {
      session.engine().run_until(session.engine().now() + 5.0);
      result.peak_nodes =
          std::max(result.peak_nodes, pilot_handle->live_nodes());
    }
    for (const auto& unit : units) {
      if (unit->state() == pilot::UnitState::kDone) {
        completed_names.push_back(unit->description().name);
      }
    }
  };

  for (int iter = 0; iter < config.scenario.iterations; ++iter) {
    run_phase(common::strformat("map-%d", iter),
              durations.map_task_seconds);
    // A dead pilot with no replacement fails the job: stop submitting.
    if (pilot::is_final(pilot_handle->state())) break;
    run_phase(common::strformat("reduce-%d", iter),
              durations.reduce_task_seconds);
    if (pilot::is_final(pilot_handle->state())) break;
  }

  if (controller != nullptr) {
    result.elastic_counters = controller->counters();
    controller->stop();
  }
  if (injector != nullptr) {
    result.failure_counters = injector->counters();
    injector->disarm();
  }
  result.pilots_resubmitted = pm.pilots_resubmitted();
  result.units_requeued = um.units_requeued();
  result.units_abandoned = um.units_abandoned();
  if (gateway != nullptr) {
    completed_names = gateway->completed_unit_names();
    result.units_preempted = gateway->units_preempted();
    result.tenant_accounting =
        gateway->accounting().to_json(/*include_journal=*/false);
    if (!config.accounting_journal.empty()) {
      gateway->accounting().write_json(config.accounting_journal);
    }
  }
  result.output_checksum = common::digest_names(std::move(completed_names));
  result.schedule_digest = common::strformat(
      "%016llx",
      static_cast<unsigned long long>(session.store().schedule_digest()));
  result.engine_events = session.engine().executed();

  // --- metrics from the trace ---
  const auto agent_started =
      session.trace().first("pilot", "agent_started");
  const auto last_done = session.trace().last("unit", "Done");
  if (!agent_started.has_value() || !last_done.has_value() ||
      !um.all_done()) {
    return result;
  }
  result.time_to_completion = last_done->time - agent_started->time;

  for (const auto& s : session.trace().find_spans("pilot", "agent_startup")) {
    if (s.key == pilot_handle->id()) result.agent_startup = s.duration();
  }
  common::RunningStats startup;
  for (const auto& s : session.trace().find_spans("unit", "startup")) {
    startup.add(s.duration());
  }
  result.mean_unit_startup =
      config.trace_rollup
          ? session.trace().span_stats("unit", "startup").mean()
          : startup.mean();
  result.units_completed = um.done_count();
  result.ok = result.units_completed ==
              static_cast<std::size_t>(config.tasks) * 2 *
                  static_cast<std::size_t>(config.scenario.iterations);
  return result;
}

}  // namespace hoh::analytics

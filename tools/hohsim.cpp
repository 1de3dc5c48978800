/// hohsim — run K-Means middleware experiments from a JSON plan.
///
/// Usage:
///   hohsim <plan.json>         run every experiment in the plan
///   hohsim --demo              run a built-in two-cell demo plan
///   hohsim --json <plan.json>  emit machine-readable JSON results
///   hohsim --strict ...        unknown plan keys abort instead of warn
///
/// Plan format (see src/analytics/experiment_config.h):
///   {"experiments": [{"machine": "stampede", "nodes": 3, "tasks": 32,
///                     "stack": "rp-yarn", "scenario": "1m"}, ...]}
///
/// An experiment may carry an "elastic" section to run the cell under an
/// ElasticController, e.g.
///   {"machine": "stampede", "nodes": 2, "tasks": 64, "stack": "rp-yarn",
///    "scenario": "1m",
///    "elastic": {"policy": "backlog", "max_nodes": 6,
///                "sample_interval": 30}}
///
/// A "failures" section arms a seeded FailureInjector over the machine's
/// batch pool, and a "recovery" section enables pilot resubmission + unit
/// requeue under a retry policy (see plans/fault_recovery.json):
///   {"machine": "stampede", "nodes": 3, "tasks": 32, "stack": "rp",
///    "scenario": "1m",
///    "failures": {"seed": 7, "mean_time_to_crash": 600,
///                 "mean_time_to_repair": 300, "max_crashes": 1,
///                 "start_after": 300},
///    "recovery": {"max_attempts": 3, "base_backoff": 5}}

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analytics/experiment_config.h"
#include "common/error.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw hoh::common::NotFoundError("cannot open plan file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const char* kDemoPlan = R"({
  "experiments": [
    {"machine": "stampede", "nodes": 3, "tasks": 32,
     "stack": "rp", "scenario": "1m"},
    {"machine": "stampede", "nodes": 3, "tasks": 32,
     "stack": "rp-yarn", "scenario": "1m"}
  ]
})";

const char* kHelp = R"(hohsim - run K-Means middleware experiments from a JSON plan

usage:
  hohsim <plan.json>         run every experiment in the plan
  hohsim --json <plan.json>  emit machine-readable JSON results
  hohsim --strict ...        unknown plan keys are errors, not warnings
  hohsim --demo              run a built-in two-cell demo plan
  hohsim --help              show this help

A plan is {"experiments": [<experiment>, ...]}. Unknown keys anywhere in
the plan are warned about and ignored; under --strict (used by every CI
invocation) they abort the run instead. Each experiment supports:

  core cell (paper Fig. 6):
    machine   "stampede" | "wrangler" | "generic"    (default stampede)
    scenario  "10k" | "100k" | "1m" or {points, clusters, iterations}
    nodes     pilot allocation size                  (default 1)
    tasks     units per map/reduce wave              (default 8)
    stack     "rp" (plain pilot) | "rp-yarn" (Mode-I YARN)

  cost model & calibration:
    op_cost                per-op seconds            (default 4e-5)
    shuffle_amplification  reduce-phase multiplier   (default 4.0)
    reuse_yarn_app         one AM for all units      (default false)

  elastic (DESIGN.md s8) - resize the pilot under a policy:
    {"policy": "backlog", "max_nodes": 6, "min_nodes": 2,
     "sample_interval": 30, "drain_timeout": 120, "params": {...}}

  failures (DESIGN.md s9) - seeded fault injection on the batch pool:
    {"seed": 7, "mean_time_to_crash": 600, "mean_time_to_repair": 300,
     "mean_time_to_slow": 0, "slow_factor": 0.5, "slow_duration": 60,
     "max_crashes": 1, "start_after": 300}

  recovery (DESIGN.md s9) - pilot resubmission + unit requeue:
    {"max_attempts": 3, "base_backoff": 5, "multiplier": 2,
     "max_backoff": 300, "jitter": 0.1}

  tenants (DESIGN.md s11) - multi-tenant submission gateway; waves are
  submitted through admission control, ordered fair-share or FIFO,
  with per-tenant quotas and usage accounting:
    {"policy": "fair-share" | "fifo",       (default fair-share)
     "decay_half_life": 600,                usage half-life, seconds
     "dispatch_window": 0,                  max in-flight units, 0 = off
     "preemption": false, "preempt_ratio": 4.0,
     "journal": "accounting.json",          durable journal path
     "list": [{"id": "alice", "share": 2.0,
               "max_in_flight": 0, "max_cores": 0,
               "submit_rate": 0.0, "submit_burst": 1.0}, ...]}

  allow_failure  expected-to-fail cell does not fail the run  (false)

  scale knobs (DESIGN.md s13):
    store_shards   state-store shard count, >= 1       (default 1)
    spawn_latency  agent task-spawner seconds          (default 1.2)
    trace_rollup   fold unit trace events to counters  (default false)
    pilot_runtime  pilot walltime request, sim seconds (default 172800)

  transport (DESIGN.md s14) - data-plane message boundary:
    transport  "inprocess" | "socket"                  (default inprocess)
               socket routes every RM<->NM / agent / store / submit
               message over loopback TCP (epoll reactor); digests are
               byte-identical to inprocess (CI socket-parity gate)
    net        socket knobs, ignored for inprocess:
               {"host": "127.0.0.1", "port": 0,        0 = ephemeral
                "reconnect_attempts": 8, "reconnect_backoff": 0.01,
                "reconnect_seed": 1}

Plans without a tenants section run the single-tenant passthrough path
(no gateway constructed) and produce byte-identical digests to older
builds. See plans/ for keystone examples.
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace hoh;
  using namespace hoh::analytics;

  bool json_output = false;
  bool demo = false;
  std::string plan_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::printf("%s", kHelp);
        return 0;
      } else if (arg == "--json") {
        json_output = true;
      } else if (arg == "--strict") {
        set_strict_plan_parsing(true);
      } else if (arg == "--demo") {
        demo = true;
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "hohsim: unknown flag %s\n", arg.c_str());
        return 2;
      } else {
        plan_path = arg;
      }
    }
    std::string plan_text;
    if (demo) {
      plan_text = kDemoPlan;
    } else if (!plan_path.empty()) {
      plan_text = read_file(plan_path);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--strict] <plan.json> | --demo | "
                   "--help\n",
                   argv[0]);
      return 2;
    }

    const auto plan =
        experiment_plan_from_json(common::Json::parse(plan_text));
    common::JsonArray results;
    if (!json_output) {
      std::printf("%-10s %-28s %6s %6s %-8s %12s %10s\n", "machine",
                  "scenario", "nodes", "tasks", "stack", "ttc (s)",
                  "startup");
    }
    for (const auto& cfg : plan) {
      const auto result = run_kmeans_experiment(cfg);
      if (json_output) {
        results.push_back(result_to_json(cfg, result));
      } else {
        std::printf("%-10s %-28s %6d %6d %-8s %12.1f %10.1f%s\n",
                    cfg.machine.name.c_str(), cfg.scenario.label.c_str(),
                    cfg.nodes, cfg.tasks, cfg.yarn_stack ? "rp-yarn" : "rp",
                    result.time_to_completion, result.agent_startup,
                    result.ok ? "" : "  [FAILED]");
        if (cfg.elastic) {
          const auto& c = result.elastic_counters;
          std::printf(
              "           elastic[%s %d..%d]: peak %d nodes, %zu samples, "
              "%zu grow / %zu shrink / %zu hold, +%d/-%d nodes, "
              "%zu clean shrinks, %zu drain timeouts\n",
              cfg.elastic_policy.name.c_str(), cfg.elastic_config.min_nodes,
              cfg.elastic_config.max_nodes, result.peak_nodes, c.samples,
              c.grow_decisions, c.shrink_decisions, c.hold_decisions,
              c.nodes_added, c.nodes_removed, c.clean_shrinks,
              c.forced_shrinks);
        }
        if (cfg.failures) {
          const auto& f = result.failure_counters;
          std::printf(
              "           failures[seed %llu]: %d crashes, %d repairs, "
              "%d slow episodes; recovery %s: %zu pilot resubmits, "
              "%zu units requeued, %zu abandoned; checksum %s\n",
              static_cast<unsigned long long>(cfg.failure_plan.seed),
              f.crashes, f.repairs, f.slow_episodes,
              cfg.recovery ? "on" : "off", result.pilots_resubmitted,
              result.units_requeued, result.units_abandoned,
              result.output_checksum.c_str());
        }
        if (cfg.tenants) {
          std::printf(
              "           tenants[%s, %zu tenants]: %zu preempted\n",
              tenant::to_string(cfg.gateway_config.policy),
              cfg.tenant_specs.size(), result.units_preempted);
          if (result.tenant_accounting.is_object() &&
              result.tenant_accounting.contains("tenants")) {
            for (const auto& [id, t] :
                 result.tenant_accounting.at("tenants").as_object()) {
              std::printf(
                  "             %-12s completed %6lld  rejected %4lld  "
                  "core-s %10.1f  mean wait %8.2fs\n",
                  id.c_str(),
                  static_cast<long long>(t.at("completed").as_number()),
                  static_cast<long long>(t.at("rejected").as_number()),
                  t.at("core_seconds").as_number(),
                  t.at("wait").at("mean").as_number());
            }
          }
        }
      }
      if (!result.ok) {
        std::fprintf(stderr, "experiment failed: %s tasks=%d%s\n",
                     cfg.scenario.label.c_str(), cfg.tasks,
                     cfg.allow_failure ? " (allowed)" : "");
        if (!cfg.allow_failure) return 1;
      }
    }
    if (json_output) {
      common::Json out;
      out["results"] = std::move(results);
      std::printf("%s\n", out.dump(2).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hohsim: %s\n", e.what());
    return 1;
  }
  return 0;
}

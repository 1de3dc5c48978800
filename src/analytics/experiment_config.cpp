#include "analytics/experiment_config.h"

#include <initializer_list>
#include <string>

#include "common/error.h"
#include "common/logging.h"

namespace hoh::analytics {
namespace {

bool g_strict_plan_parsing = false;

/// Unknown keys warn instead of erroring so older binaries keep running
/// newer plans, but a typo ("tenant" for "tenants") is never silent. In
/// strict mode (hohsim --strict, used by every CI invocation) the same
/// typo is a hard ConfigError.
void warn_unknown_keys(const common::Json& obj,
                       std::initializer_list<const char*> known,
                       const std::string& where) {
  for (const auto& [key, value] : obj.as_object()) {
    bool found = false;
    for (const char* k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      if (g_strict_plan_parsing) {
        throw common::ConfigError("unknown key \"" + key + "\" in " + where +
                                  " (strict mode)");
      }
      common::Logger("hohsim").warn("ignoring unknown key \"" + key +
                                    "\" in " + where);
    }
  }
}

cluster::MachineProfile machine_by_name(const std::string& name) {
  if (name == "stampede") return cluster::stampede_profile();
  if (name == "wrangler") return cluster::wrangler_profile();
  if (name == "generic") return cluster::generic_profile();
  throw common::ConfigError("unknown machine: " + name);
}

hpc::SchedulerKind scheduler_for(const std::string& machine) {
  // Stampede ran SLURM, Wrangler's reservations go through SGE.
  return machine == "wrangler" ? hpc::SchedulerKind::kSge
                               : hpc::SchedulerKind::kSlurm;
}

KmeansScenario scenario_from(const common::Json& value) {
  if (value.is_string()) {
    const std::string& name = value.as_string();
    if (name == "10k") return scenario_10k_points();
    if (name == "100k") return scenario_100k_points();
    if (name == "1m" || name == "1M") return scenario_1m_points();
    throw common::ConfigError("unknown scenario: " + name);
  }
  if (value.is_object()) {
    KmeansScenario s;
    s.points = value.at("points").as_int();
    s.clusters = value.at("clusters").as_int();
    if (value.contains("iterations")) {
      s.iterations = static_cast<int>(value.at("iterations").as_int());
    }
    if (s.points < 1 || s.clusters < 1 || s.iterations < 1) {
      throw common::ConfigError("scenario fields must be >= 1");
    }
    s.label = std::to_string(s.points) + " pts / " +
              std::to_string(s.clusters) + " clusters";
    return s;
  }
  throw common::ConfigError("scenario must be a string or an object");
}

}  // namespace

void set_strict_plan_parsing(bool strict) { g_strict_plan_parsing = strict; }

bool strict_plan_parsing() { return g_strict_plan_parsing; }

KmeansExperimentConfig kmeans_config_from_json(const common::Json& doc) {
  if (!doc.is_object()) {
    throw common::ConfigError("experiment must be a JSON object");
  }
  KmeansExperimentConfig cfg;
  const std::string machine =
      doc.contains("machine") ? doc.at("machine").as_string() : "stampede";
  cfg.machine = machine_by_name(machine);
  cfg.scheduler = scheduler_for(machine);
  cfg.scenario = doc.contains("scenario")
                     ? scenario_from(doc.at("scenario"))
                     : scenario_1m_points();
  if (doc.contains("nodes")) {
    cfg.nodes = static_cast<int>(doc.at("nodes").as_int());
  }
  if (doc.contains("tasks")) {
    cfg.tasks = static_cast<int>(doc.at("tasks").as_int());
  }
  if (cfg.nodes < 1 || cfg.tasks < 1) {
    throw common::ConfigError("nodes and tasks must be >= 1");
  }
  if (doc.contains("stack")) {
    const std::string& stack = doc.at("stack").as_string();
    if (stack == "rp") {
      cfg.yarn_stack = false;
    } else if (stack == "rp-yarn" || stack == "yarn") {
      cfg.yarn_stack = true;
    } else {
      throw common::ConfigError("unknown stack: " + stack);
    }
  }
  if (doc.contains("op_cost")) {
    cfg.op_cost = doc.at("op_cost").as_number();
  }
  if (doc.contains("shuffle_amplification")) {
    cfg.shuffle_amplification = doc.at("shuffle_amplification").as_number();
  }
  if (doc.contains("reuse_yarn_app")) {
    cfg.reuse_yarn_app = doc.at("reuse_yarn_app").as_bool();
  }
  if (doc.contains("elastic")) {
    const common::Json& e = doc.at("elastic");
    if (!e.is_object()) {
      throw common::ConfigError("\"elastic\" must be an object");
    }
    cfg.elastic = true;
    cfg.elastic_config.min_nodes = cfg.nodes;
    cfg.elastic_config.max_nodes = cfg.nodes;
    if (e.contains("policy")) {
      cfg.elastic_policy.name = e.at("policy").as_string();
    }
    if (e.contains("params")) {
      for (const auto& [key, value] : e.at("params").as_object()) {
        cfg.elastic_policy.params[key] = value.as_number();
      }
    }
    if (e.contains("sample_interval")) {
      cfg.elastic_config.sample_interval =
          e.at("sample_interval").as_number();
    }
    if (e.contains("max_nodes")) {
      cfg.elastic_config.max_nodes =
          static_cast<int>(e.at("max_nodes").as_int());
    }
    if (e.contains("min_nodes")) {
      cfg.elastic_config.min_nodes =
          static_cast<int>(e.at("min_nodes").as_int());
    }
    if (e.contains("drain_timeout")) {
      cfg.elastic_config.drain_timeout = e.at("drain_timeout").as_number();
    }
    if (cfg.elastic_config.max_nodes < cfg.nodes) {
      throw common::ConfigError("elastic.max_nodes must be >= nodes");
    }
    // Fail fast on a bad policy name or parameter, before any run time
    // is spent.
    elastic::make_policy(cfg.elastic_policy);
  }
  if (doc.contains("failures")) {
    const common::Json& f = doc.at("failures");
    if (!f.is_object()) {
      throw common::ConfigError("\"failures\" must be an object");
    }
    cfg.failures = true;
    if (f.contains("seed")) {
      cfg.failure_plan.seed =
          static_cast<std::uint64_t>(f.at("seed").as_int());
    }
    if (f.contains("mean_time_to_crash")) {
      cfg.failure_plan.mean_time_to_crash =
          f.at("mean_time_to_crash").as_number();
    }
    if (f.contains("mean_time_to_repair")) {
      cfg.failure_plan.mean_time_to_repair =
          f.at("mean_time_to_repair").as_number();
    }
    if (f.contains("mean_time_to_slow")) {
      cfg.failure_plan.mean_time_to_slow =
          f.at("mean_time_to_slow").as_number();
    }
    if (f.contains("slow_factor")) {
      cfg.failure_plan.slow_factor = f.at("slow_factor").as_number();
    }
    if (f.contains("slow_duration")) {
      cfg.failure_plan.slow_duration = f.at("slow_duration").as_number();
    }
    if (f.contains("max_crashes")) {
      cfg.failure_plan.max_crashes =
          static_cast<int>(f.at("max_crashes").as_int());
    }
    if (f.contains("start_after")) {
      cfg.failure_plan.start_after = f.at("start_after").as_number();
    }
    cfg.failure_plan.validate();
  }
  if (doc.contains("recovery")) {
    const common::Json& r = doc.at("recovery");
    if (!r.is_object()) {
      throw common::ConfigError("\"recovery\" must be an object");
    }
    cfg.recovery = true;
    if (r.contains("max_attempts")) {
      cfg.retry_policy.max_attempts =
          static_cast<int>(r.at("max_attempts").as_int());
    }
    if (r.contains("base_backoff")) {
      cfg.retry_policy.base_backoff = r.at("base_backoff").as_number();
    }
    if (r.contains("multiplier")) {
      cfg.retry_policy.multiplier = r.at("multiplier").as_number();
    }
    if (r.contains("max_backoff")) {
      cfg.retry_policy.max_backoff = r.at("max_backoff").as_number();
    }
    if (r.contains("jitter")) {
      cfg.retry_policy.jitter = r.at("jitter").as_number();
    }
    cfg.retry_policy.validate();
  }
  if (doc.contains("tenants")) {
    const common::Json& t = doc.at("tenants");
    if (!t.is_object()) {
      throw common::ConfigError("\"tenants\" must be an object");
    }
    warn_unknown_keys(t,
                      {"policy", "decay_half_life", "dispatch_window",
                       "preemption", "preempt_ratio", "journal", "list"},
                      "tenants");
    cfg.tenants = true;
    if (t.contains("policy")) {
      cfg.gateway_config.policy =
          tenant::scheduling_policy_from_string(t.at("policy").as_string());
    }
    if (t.contains("decay_half_life")) {
      cfg.gateway_config.decay_half_life =
          t.at("decay_half_life").as_number();
    }
    if (t.contains("dispatch_window")) {
      cfg.gateway_config.dispatch_window =
          static_cast<int>(t.at("dispatch_window").as_int());
    }
    if (t.contains("preemption")) {
      cfg.gateway_config.preemption = t.at("preemption").as_bool();
    }
    if (t.contains("preempt_ratio")) {
      cfg.gateway_config.preempt_ratio = t.at("preempt_ratio").as_number();
    }
    if (t.contains("journal")) {
      cfg.accounting_journal = t.at("journal").as_string();
    }
    if (!t.contains("list") || !t.at("list").is_array()) {
      throw common::ConfigError("\"tenants\" needs a \"list\" array");
    }
    for (const auto& entry : t.at("list").as_array()) {
      if (!entry.is_object()) {
        throw common::ConfigError("tenants.list entries must be objects");
      }
      warn_unknown_keys(entry,
                        {"id", "share", "max_in_flight", "max_cores",
                         "submit_rate", "submit_burst"},
                        "tenants.list entry");
      tenant::TenantSpec spec;
      spec.id = entry.at("id").as_string();
      if (entry.contains("share")) {
        spec.share_weight = entry.at("share").as_number();
      }
      if (entry.contains("max_in_flight")) {
        spec.quota.max_in_flight_units =
            static_cast<int>(entry.at("max_in_flight").as_int());
      }
      if (entry.contains("max_cores")) {
        spec.quota.max_cores =
            static_cast<int>(entry.at("max_cores").as_int());
      }
      if (entry.contains("submit_rate")) {
        spec.quota.submit_rate = entry.at("submit_rate").as_number();
      }
      if (entry.contains("submit_burst")) {
        spec.quota.submit_burst = entry.at("submit_burst").as_number();
      }
      if (spec.share_weight <= 0.0) {
        throw common::ConfigError("tenant \"" + spec.id +
                                  "\": share must be > 0");
      }
      cfg.tenant_specs.push_back(std::move(spec));
    }
    if (cfg.tenant_specs.empty()) {
      throw common::ConfigError("tenants.list is empty");
    }
  }
  if (doc.contains("allow_failure")) {
    cfg.allow_failure = doc.at("allow_failure").as_bool();
  }
  if (doc.contains("store_shards")) {
    cfg.store_shards = static_cast<int>(doc.at("store_shards").as_int());
    if (cfg.store_shards < 1) {
      throw common::ConfigError("store_shards must be >= 1");
    }
  }
  if (doc.contains("spawn_latency")) {
    cfg.spawn_latency = doc.at("spawn_latency").as_number();
    if (cfg.spawn_latency < 0.0) {
      throw common::ConfigError("spawn_latency must be >= 0");
    }
  }
  if (doc.contains("trace_rollup")) {
    cfg.trace_rollup = doc.at("trace_rollup").as_bool();
  }
  if (doc.contains("pilot_runtime")) {
    cfg.pilot_runtime = doc.at("pilot_runtime").as_number();
    if (cfg.pilot_runtime <= 0.0) {
      throw common::ConfigError("pilot_runtime must be > 0");
    }
  }
  if (doc.contains("transport")) {
    cfg.transport = doc.at("transport").as_string();
    if (cfg.transport != "inprocess" && cfg.transport != "socket") {
      throw common::ConfigError("unknown transport: " + cfg.transport +
                                " (expected \"inprocess\" or \"socket\")");
    }
  }
  if (doc.contains("net")) {
    const common::Json& n = doc.at("net");
    if (n.contains("host")) {
      cfg.net.host = n.at("host").as_string();
    }
    if (n.contains("port")) {
      const std::int64_t port = n.at("port").as_int();
      if (port < 0 || port > 65535) {
        throw common::ConfigError("net.port must be in [0, 65535]");
      }
      cfg.net.port = static_cast<std::uint16_t>(port);
    }
    if (n.contains("reconnect_attempts")) {
      cfg.net.reconnect.max_attempts =
          static_cast<int>(n.at("reconnect_attempts").as_int());
      if (cfg.net.reconnect.max_attempts < 1) {
        throw common::ConfigError("net.reconnect_attempts must be >= 1");
      }
    }
    if (n.contains("reconnect_backoff")) {
      cfg.net.reconnect.base_backoff = n.at("reconnect_backoff").as_number();
      if (cfg.net.reconnect.base_backoff < 0.0) {
        throw common::ConfigError("net.reconnect_backoff must be >= 0");
      }
    }
    if (n.contains("reconnect_seed")) {
      cfg.net.reconnect_seed =
          static_cast<std::uint64_t>(n.at("reconnect_seed").as_int());
    }
    warn_unknown_keys(n,
                      {"host", "port", "reconnect_attempts",
                       "reconnect_backoff", "reconnect_seed"},
                      "experiment.net");
  }
  warn_unknown_keys(doc,
                    {"machine", "scenario", "nodes", "tasks", "stack",
                     "op_cost", "shuffle_amplification", "reuse_yarn_app",
                     "elastic", "failures", "recovery",
                     "tenants", "allow_failure", "store_shards",
                     "spawn_latency", "trace_rollup", "pilot_runtime",
                     "transport", "net"},
                    "experiment");
  return cfg;
}

std::vector<KmeansExperimentConfig> experiment_plan_from_json(
    const common::Json& doc) {
  if (!doc.contains("experiments") || !doc.at("experiments").is_array()) {
    throw common::ConfigError(
        "experiment plan needs an \"experiments\" array");
  }
  warn_unknown_keys(doc, {"experiments"}, "plan");
  std::vector<KmeansExperimentConfig> plan;
  for (const auto& entry : doc.at("experiments").as_array()) {
    plan.push_back(kmeans_config_from_json(entry));
  }
  if (plan.empty()) {
    throw common::ConfigError("experiment plan is empty");
  }
  return plan;
}

common::Json result_to_json(const KmeansExperimentConfig& config,
                            const KmeansExperimentResult& result) {
  common::Json j;
  j["machine"] = config.machine.name;
  j["scenario"] = config.scenario.label;
  j["nodes"] = static_cast<std::int64_t>(config.nodes);
  j["tasks"] = static_cast<std::int64_t>(config.tasks);
  j["stack"] = config.yarn_stack ? "rp-yarn" : "rp";
  j["ok"] = result.ok;
  j["time_to_completion_s"] = result.time_to_completion;
  j["agent_startup_s"] = result.agent_startup;
  j["mean_unit_startup_s"] = result.mean_unit_startup;
  j["units_completed"] = static_cast<std::int64_t>(result.units_completed);
  j["engine_events"] = static_cast<std::int64_t>(result.engine_events);
  j["store_shards"] = static_cast<std::int64_t>(config.store_shards);
  j["transport"] = config.transport;
  j["outputChecksum"] = result.output_checksum;
  if (config.elastic) {
    j["elastic"] = common::Json(common::JsonObject{
        {"policy", config.elastic_policy.name},
        {"maxNodes", config.elastic_config.max_nodes},
        {"peakNodes", result.peak_nodes},
        {"counters", result.elastic_counters.to_json()}});
  }
  if (config.failures) {
    j["failures"] = common::Json(common::JsonObject{
        {"seed", static_cast<std::int64_t>(config.failure_plan.seed)},
        {"crashes",
         static_cast<std::int64_t>(result.failure_counters.crashes)},
        {"repairs",
         static_cast<std::int64_t>(result.failure_counters.repairs)},
        {"slowEpisodes",
         static_cast<std::int64_t>(result.failure_counters.slow_episodes)},
        {"recovery", config.recovery},
        {"pilotsResubmitted",
         static_cast<std::int64_t>(result.pilots_resubmitted)},
        {"unitsRequeued",
         static_cast<std::int64_t>(result.units_requeued)},
        {"unitsAbandoned",
         static_cast<std::int64_t>(result.units_abandoned)},
        {"outputChecksum", result.output_checksum}});
  }
  if (config.tenants) {
    j["tenants"] = common::Json(common::JsonObject{
        {"policy", tenant::to_string(config.gateway_config.policy)},
        {"tenantCount",
         static_cast<std::int64_t>(config.tenant_specs.size())},
        {"preemption", config.gateway_config.preemption},
        {"unitsPreempted",
         static_cast<std::int64_t>(result.units_preempted)},
        {"accounting", result.tenant_accounting}});
  }
  return j;
}

}  // namespace hoh::analytics

/// loadtest_gateway — open-loop load test of the multi-tenant
/// SubmissionGateway (DESIGN.md §11).
///
/// Thousands of tenants submit Poisson arrivals against a deliberately
/// overloaded pilot (≈4× capacity), once under FIFO and once under
/// fair-share, from the *same seeded arrival trace*. Reports
/// submission-to-start latency percentiles and Jain's fairness index
/// over per-tenant completed core-seconds at the horizon cutoff, and
/// writes the comparison to a JSON artifact (BENCH_gateway.json).
///
/// 10% of tenants are "heavy" (10× the submit rate, equal share), so
/// FIFO — which serves demand, not entitlement — lands near J ≈ 0.33
/// while fair-share holds J ≳ 0.95. Every tenant is seeded with a small
/// t=0 burst so all of them stay backlogged for the whole horizon;
/// Jain's index is only meaningful while demand exceeds fair share.
///
/// Usage:
///   loadtest_gateway [--tenants N] [--nodes N] [--horizon S]
///                    [--duration S] [--overload X] [--seed N]
///                    [--out FILE] [--assert-jain X] [--assert-p99 S]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "common/statistics.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"
#include "tenant/submission_gateway.h"

namespace {

using namespace hoh;

struct LoadConfig {
  int tenants = 1200;
  int nodes = 32;
  int cores_per_node = 8;
  double horizon = 1200.0;   // submission window, seconds (virtual)
  double duration = 60.0;    // per-unit runtime, seconds
  double overload = 4.0;     // aggregate demand vs. pilot capacity
  // One unit per tenant at t=0 so everyone is backlogged from the start
  // (Jain's index is only meaningful under saturation). Kept small: the
  // equal burst itself is FIFO-fair, so a large one would mask the
  // policy difference the test exists to measure.
  int seed_burst = 1;
  std::uint64_t seed = 42;
  std::string out = "BENCH_gateway.json";
  double assert_jain = 0.0;  // 0 = no assertion
  double assert_p99 = 0.0;   // seconds; 0 = no assertion
};

struct Arrival {
  double t = 0.0;
  int tenant = 0;
};

bool is_heavy(int tenant_index) { return tenant_index % 10 == 9; }

std::string tenant_name(int i) { return "tenant-" + std::to_string(i); }

/// The seeded Poisson arrival trace, identical for both policies.
std::vector<Arrival> make_arrivals(const LoadConfig& cfg) {
  const int heavy = cfg.tenants / 10;
  const int light = cfg.tenants - heavy;
  // Aggregate demand = overload × capacity; heavy tenants run at 10×
  // the light per-tenant rate.
  const double capacity_rate =
      static_cast<double>(cfg.nodes * cfg.cores_per_node) / cfg.duration;
  const double light_rate = cfg.overload * capacity_rate /
                            (static_cast<double>(light) + 10.0 * heavy);
  common::Rng rng(cfg.seed);
  std::vector<Arrival> arrivals;
  for (int i = 0; i < cfg.tenants; ++i) {
    const double rate = is_heavy(i) ? 10.0 * light_rate : light_rate;
    double t = rng.exponential(1.0 / rate);
    while (t < cfg.horizon) {
      arrivals.push_back({t, i});
      t += rng.exponential(1.0 / rate);
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.tenant < b.tenant;
            });
  return arrivals;
}

struct RunResult {
  double jain = 0.0;
  double p50_wait = 0.0;
  double p99_wait = 0.0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t started = 0;
  std::size_t peak_in_flight = 0;
};

RunResult run_one(const LoadConfig& cfg, tenant::SchedulingPolicy policy,
                  const std::vector<Arrival>& arrivals) {
  pilot::Session session;
  const cluster::MachineProfile machine =
      cluster::generic_profile(cfg.nodes, cfg.cores_per_node);
  session.register_machine(machine, hpc::SchedulerKind::kSlurm, cfg.nodes);

  pilot::AgentConfig agent;
  agent.spawn_latency = 0.02;  // spawner must outrun the dispatch rate

  pilot::PilotDescription pd;
  pd.resource = "slurm://" + machine.name + "/";
  pd.nodes = cfg.nodes;
  pd.runtime = 48 * 3600.0;
  pd.backend = pilot::AgentBackend::kPlain;

  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  auto pilot_handle = pm.submit_pilot(pd, agent);
  um.add_pilot(pilot_handle);
  while (pilot_handle->state() != pilot::PilotState::kActive &&
         session.engine().now() < 3600.0) {
    session.engine().run_until(session.engine().now() + 5.0);
  }
  if (pilot_handle->state() != pilot::PilotState::kActive) {
    std::fprintf(stderr, "loadtest_gateway: pilot never became active\n");
    std::exit(1);
  }

  tenant::GatewayConfig gc;
  gc.policy = policy;
  // Window = pilot cores: dispatched ≈ executing, everything else queues
  // gateway-side where the policy decides the order. An unbounded window
  // would dump the backlog into the agent's FIFO queue and erase the
  // policy difference.
  gc.dispatch_window = cfg.nodes * cfg.cores_per_node;
  gc.accounting_journal = false;  // ~10^4 events; aggregates suffice
  tenant::SubmissionGateway gateway(um, gc);
  for (int i = 0; i < cfg.tenants; ++i) {
    tenant::TenantSpec spec;
    spec.id = tenant_name(i);
    gateway.add_tenant(spec);
  }

  auto submit_unit = [&](int tenant_index, int n) {
    pilot::ComputeUnitDescription cud;
    cud.name = tenant_name(tenant_index) + "-u" + std::to_string(n);
    cud.cores = 1;
    cud.memory_mb = 512;
    cud.duration = cfg.duration;
    gateway.submit(tenant_name(tenant_index), cud);
  };

  // Submission window starts once the pilot is up, so wait times measure
  // gateway queueing, not pilot bootstrap.
  const double t0 = session.engine().now();
  std::vector<int> submitted_per_tenant(cfg.tenants, 0);
  for (int i = 0; i < cfg.tenants; ++i) {
    for (int b = 0; b < cfg.seed_burst; ++b) submit_unit(i, b);
    submitted_per_tenant[i] = cfg.seed_burst;
  }
  for (const Arrival& a : arrivals) {
    session.engine().schedule_at(t0 + a.t, [&, a] {
      submit_unit(a.tenant, submitted_per_tenant[a.tenant]++);
    });
  }

  session.engine().run_until(t0 + cfg.horizon);

  // Cutoff metrics: per-tenant completed core-seconds (the service each
  // tenant actually received) and the start-latency distribution.
  RunResult out;
  std::vector<double> service;
  service.reserve(static_cast<std::size_t>(cfg.tenants));
  const auto& per_tenant = gateway.accounting().tenants();
  for (int i = 0; i < cfg.tenants; ++i) {
    double core_seconds = 0.0;
    const auto it = per_tenant.find(tenant_name(i));
    if (it != per_tenant.end()) {
      core_seconds = it->second.core_seconds;
      out.submitted += it->second.submitted;
      out.completed += it->second.completed;
      out.started += it->second.started;
    }
    service.push_back(core_seconds);
  }
  out.jain = tenant::jains_index(service);
  const std::vector<double>& waits = gateway.accounting().wait_samples();
  out.p50_wait = common::percentile(waits, 0.50);
  out.p99_wait = common::percentile(waits, 0.99);
  out.peak_in_flight = gateway.peak_in_flight();
  return out;
}

common::Json result_json(const RunResult& r) {
  common::Json j;
  j["jain"] = r.jain;
  j["p50_wait_s"] = r.p50_wait;
  j["p99_wait_s"] = r.p99_wait;
  j["submitted"] = static_cast<std::int64_t>(r.submitted);
  j["started"] = static_cast<std::int64_t>(r.started);
  j["completed"] = static_cast<std::int64_t>(r.completed);
  j["peak_in_flight"] = static_cast<std::int64_t>(r.peak_in_flight);
  return j;
}

void print_row(const char* label, const RunResult& r) {
  std::printf("%-12s jain %.3f  p50 wait %8.1fs  p99 wait %8.1fs  "
              "%zu submitted, %zu started, %zu completed\n",
              label, r.jain, r.p50_wait, r.p99_wait, r.submitted,
              r.started, r.completed);
}

}  // namespace

int main(int argc, char** argv) {
  LoadConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "loadtest_gateway: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--tenants") {
      cfg.tenants = std::atoi(next());
    } else if (arg == "--nodes") {
      cfg.nodes = std::atoi(next());
    } else if (arg == "--horizon") {
      cfg.horizon = std::atof(next());
    } else if (arg == "--duration") {
      cfg.duration = std::atof(next());
    } else if (arg == "--overload") {
      cfg.overload = std::atof(next());
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--out") {
      cfg.out = next();
    } else if (arg == "--assert-jain") {
      cfg.assert_jain = std::atof(next());
    } else if (arg == "--assert-p99") {
      cfg.assert_p99 = std::atof(next());
    } else {
      std::fprintf(stderr, "loadtest_gateway: unknown flag %s\n",
                   arg.c_str());
      return 2;
    }
  }
  if (cfg.tenants < 10 || cfg.nodes < 1 || cfg.horizon <= 0.0 ||
      cfg.duration <= 0.0) {
    std::fprintf(stderr, "loadtest_gateway: bad configuration\n");
    return 2;
  }

  const std::vector<Arrival> arrivals = make_arrivals(cfg);
  std::printf("gateway load test: %d tenants (%d heavy x10 rate), "
              "%d nodes x %d cores, horizon %.0fs, overload %.1fx, "
              "%zu Poisson arrivals + %d seed units/tenant, seed %llu\n",
              cfg.tenants, cfg.tenants / 10, cfg.nodes, cfg.cores_per_node,
              cfg.horizon, cfg.overload, arrivals.size(), cfg.seed_burst,
              static_cast<unsigned long long>(cfg.seed));

  const RunResult fifo =
      run_one(cfg, tenant::SchedulingPolicy::kFifo, arrivals);
  print_row("fifo", fifo);
  const RunResult fair =
      run_one(cfg, tenant::SchedulingPolicy::kFairShare, arrivals);
  print_row("fair-share", fair);

  common::Json doc;
  doc["schema"] = "hoh-gateway-loadtest-v1";
  common::Json config;
  config["tenants"] = static_cast<std::int64_t>(cfg.tenants);
  config["nodes"] = static_cast<std::int64_t>(cfg.nodes);
  config["cores_per_node"] = static_cast<std::int64_t>(cfg.cores_per_node);
  config["horizon_s"] = cfg.horizon;
  config["unit_duration_s"] = cfg.duration;
  config["overload"] = cfg.overload;
  config["seed"] = static_cast<std::int64_t>(cfg.seed);
  config["arrivals"] = static_cast<std::int64_t>(arrivals.size());
  doc["config"] = std::move(config);
  doc["fifo"] = result_json(fifo);
  doc["fair_share"] = result_json(fair);
  if (!cfg.out.empty()) {
    std::ofstream out(cfg.out);
    if (!out) {
      std::fprintf(stderr, "loadtest_gateway: cannot write %s\n",
                   cfg.out.c_str());
      return 1;
    }
    out << doc.dump(2) << "\n";
    std::printf("wrote %s\n", cfg.out.c_str());
  }

  int rc = 0;
  if (cfg.assert_jain > 0.0 && fair.jain < cfg.assert_jain) {
    std::fprintf(stderr,
                 "FAIL: fair-share Jain %.3f < required %.3f\n",
                 fair.jain, cfg.assert_jain);
    rc = 1;
  }
  if (cfg.assert_p99 > 0.0 && fair.p99_wait > cfg.assert_p99) {
    std::fprintf(stderr,
                 "FAIL: fair-share p99 wait %.1fs > budget %.1fs\n",
                 fair.p99_wait, cfg.assert_p99);
    rc = 1;
  }
  if (cfg.assert_jain > 0.0 && fifo.jain >= cfg.assert_jain) {
    std::fprintf(stderr,
                 "FAIL: FIFO Jain %.3f >= %.3f - overload too low to "
                 "discriminate policies\n",
                 fifo.jain, cfg.assert_jain);
    rc = 1;
  }
  return rc;
}

#include "hoh_bench/workloads.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "analytics/kmeans_cost.h"
#include "cluster/machine.h"
#include "common/error.h"
#include "common/random.h"
#include "common/statistics.h"
#include "common/string_util.h"
#include "hoh_bench/span_recorder.h"
#include "hoh_bench/timing_transport.h"
#include "net/socket_transport.h"
#include "pilot/agent/agent_config.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"
#include "tenant/accounting.h"
#include "tenant/submission_gateway.h"

namespace hoh::bench {

namespace {

constexpr double kMaxSimTime = 14 * 24 * 3600.0;

/// FNV-1a over the sorted, newline-joined names: the run digest
/// analytics::run_kmeans_experiment reports as outputChecksum.
std::string digest_names(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& name : names) {
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= static_cast<unsigned char>('\n');
    h *= 1099511628211ull;
  }
  return common::strformat("%016llx", static_cast<unsigned long long>(h));
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Program counters read at both ends of the timed phase.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t store_ops = 0;
  std::uint64_t store_mutations = 0;
  net::TransportStats net;
};

Counters read_counters(pilot::Session& session) {
  return Counters{session.engine().executed(), session.store().op_count(),
                  session.store().mutation_count(),
                  session.transport().stats()};
}

/// The session's transport for a round: loopback TCP or in-process,
/// wrapped in TimingTransport when traced. An untraced in-process round
/// keeps the session's own InProcessTransport.
void install_transport(pilot::Session& session, bool socket, bool traced,
                       SpanRecorder& recorder) {
  std::unique_ptr<net::Transport> transport;
  if (socket) transport = std::make_unique<net::SocketTransport>();
  if (traced) {
    if (transport == nullptr) {
      transport = std::make_unique<net::InProcessTransport>();
    }
    transport =
        std::make_unique<TimingTransport>(std::move(transport), recorder);
  }
  if (transport != nullptr) session.set_transport(std::move(transport));
}

/// Metric names per span layer: message or call count, and self time
/// as a share of the timed phase's wall time.
struct LayerRow {
  Layer layer;
  const char* count;  // nullptr: counted elsewhere
  const char* self_frac;
};

constexpr LayerRow kLayerRows[] = {
    {Layer::kEngine, nullptr, "engine.self_frac"},
    {Layer::kUmSubmit, "unit_manager.submit_calls",
     "unit_manager.submit_self_frac"},
    {Layer::kUmAllDone, "unit_manager.all_done_calls",
     "unit_manager.all_done_self_frac"},
    {Layer::kTenantAdmit, "tenant.admit_calls", "tenant.admit_self_frac"},
    {Layer::kNet, nullptr, "net.wire_self_frac"},
    {Layer::kStoreIngest, "store.ingest_msgs", "store.ingest_self_frac"},
    {Layer::kAgentNotify, "agent.notify_msgs", "agent.notify_self_frac"},
    {Layer::kUnitNotify, "watch_unit.notify_msgs",
     "watch_unit.notify_self_frac"},
    {Layer::kHeartbeatNotify, "pilot_manager.heartbeat_msgs",
     "pilot_manager.heartbeat_self_frac"},
    {Layer::kYarnNm, "yarn.nm_msgs", "yarn.nm_self_frac"},
    {Layer::kYarnRm, "yarn.rm_msgs", "yarn.rm_self_frac"},
    {Layer::kTenantSubmit, "tenant.submit_msgs", "tenant.submit_self_frac"},
    {Layer::kOther, "other.msgs", "other.self_frac"},
};
static_assert(std::size(kLayerRows) == static_cast<std::size_t>(Layer::kCount),
              "every span layer needs a metric row");

double percentile_us(const std::vector<std::int64_t>& ns, double q) {
  std::vector<double> samples(ns.begin(), ns.end());
  return common::percentile(std::move(samples), q) / 1e3;
}

/// Fields of a round both workload kinds fill the same way once the
/// timed phase is over; the per-layer metrics only for a traced round.
/// \p gateway is null for workloads without one.
void finish_round(RoundResult& r, const SpanRecorder& recorder,
                  std::int64_t start_ns, std::int64_t end_ns,
                  const Counters& before, const Counters& after,
                  const tenant::SubmissionGateway* gateway) {
  r.timed_s = seconds_between(start_ns, end_ns);
  if (!r.traced) return;
  auto& m = r.layers;
  const auto set = [&m](const char* name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  const auto delta = [](std::uint64_t from, std::uint64_t to) {
    return static_cast<double>(to - from);
  };
  const auto wall = static_cast<double>(end_ns - start_ns);
  double attributed = 0.0;
  for (const LayerRow& row : kLayerRows) {
    const LayerStats& s = recorder.stats(row.layer);
    if (row.count != nullptr) {
      set(row.count, static_cast<double>(s.calls), "count");
    }
    set(row.self_frac, ratio(static_cast<double>(s.self_ns), wall), "frac");
    attributed += static_cast<double>(s.self_ns);
  }
  const double events = delta(before.events, after.events);
  const LayerStats& engine = recorder.stats(Layer::kEngine);
  const double run_s = static_cast<double>(engine.total_ns) / 1e9;
  set("trace.wall_s", wall / 1e9, "s");
  set("trace.attributed_frac", ratio(attributed, wall), "frac");
  set("engine.events", events, "count");
  set("engine.run_s", run_s, "s");
  set("engine.events_per_busy_s", ratio(events, run_s), "1/s");
  set("engine.self_ns_per_event",
      ratio(static_cast<double>(engine.self_ns), events), "ns");
  set("store.ops", delta(before.store_ops, after.store_ops), "count");
  set("store.mutations", delta(before.store_mutations, after.store_mutations),
      "count");
  set("agent.notify_p99_us",
      percentile_us(recorder.samples(Layer::kAgentNotify), 0.99), "us");
  set("net.calls", delta(before.net.calls, after.net.calls), "count");
  set("net.sends", delta(before.net.sends, after.net.sends), "count");
  set("net.bytes_sent", delta(before.net.bytes_sent, after.net.bytes_sent),
      "count");
  set("net.bytes_received",
      delta(before.net.bytes_received, after.net.bytes_received), "count");
  set("net.reconnects", delta(before.net.reconnects, after.net.reconnects),
      "count");
  set("net.wire_p50_us", percentile_us(recorder.samples(Layer::kNet), 0.50),
      "us");
  set("net.wire_p99_us", percentile_us(recorder.samples(Layer::kNet), 0.99),
      "us");
  set("client.submit_p50_us", common::percentile(r.submit_us, 0.50), "us");
  set("client.submit_p99_us", common::percentile(r.submit_us, 0.99), "us");
  set("tenant.backlog_at_horizon",
      gateway != nullptr ? static_cast<double>(gateway->pending_count()) : 0.0,
      "count");
  set("tenant.peak_in_flight",
      gateway != nullptr ? static_cast<double>(gateway->peak_in_flight())
                         : 0.0,
      "count");
}

// ---------------------------------------------------------------- kmeans

RoundResult run_kmeans(const KmeansShape& shape, std::uint64_t seed,
                       bool traced) {
  RoundResult r;
  r.traced = traced;
  SpanRecorder recorder;
  const std::int64_t round_start = SpanRecorder::now_ns();

  pilot::Session session;
  install_transport(session, shape.socket, traced, recorder);
  session.store().set_shard_count(16);
  session.trace().enable_rollup("unit");
  const cluster::MachineProfile machine = cluster::generic_profile();
  session.register_machine(machine, hpc::SchedulerKind::kSlurm, shape.nodes);

  analytics::KmeansRunConfig run;
  run.machine = &session.saga().resource(machine.name).profile;
  run.nodes = shape.nodes;
  run.tasks = shape.tasks;
  run.yarn_stack = shape.yarn;
  analytics::KmeansScenario scenario;
  scenario.points = 1000000;
  scenario.clusters = 100;
  scenario.iterations = shape.iterations;
  const analytics::KmeansPhaseDurations durations =
      analytics::kmeans_phase_durations(scenario, run);

  pilot::AgentConfig agent;
  agent.spawn_latency = 0.001;
  agent.yarn_submit_latency = 0.3;
  agent.env_load_seconds = durations.env_load_per_task;
  agent.wrapper_setup_time = durations.wrapper_per_node;
  agent.wrapper_cached_time = 1.0;
  agent.control_plane = common::ControlPlane::kWatch;
  agent.yarn.yarn.control_plane = common::ControlPlane::kWatch;
  agent.yarn.yarn.am_launch_time = 10.0;
  agent.yarn.yarn.container_launch_time = 4.0;

  pilot::PilotDescription pd;
  pd.resource = "slurm://" + machine.name + "/";
  pd.nodes = shape.nodes;
  pd.runtime = 48 * 3600.0;
  pd.backend = shape.yarn ? pilot::AgentBackend::kYarnModeI
                          : pilot::AgentBackend::kPlain;

  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  um.set_control_plane(common::ControlPlane::kWatch);
  auto pilot_handle = pm.submit_pilot(pd, agent);
  um.add_pilot(pilot_handle);
  sim::Engine& engine = session.engine();
  while (pilot_handle->state() != pilot::PilotState::kActive &&
         !pilot::is_final(pilot_handle->state()) &&
         engine.now() < kMaxSimTime) {
    engine.run_until(engine.now() + 5.0);
  }
  if (pilot_handle->state() != pilot::PilotState::kActive) {
    r.errors.push_back("pilot never became active");
    return r;
  }

  // Every wave's descriptions exist before the clock starts. Seed 0 keeps
  // the cost model's durations; any other seed jitters each unit by up
  // to +-10%.
  common::Rng jitter(seed);
  std::vector<std::vector<pilot::ComputeUnitDescription>> waves;
  std::vector<std::string> submitted_names;
  for (int iter = 0; iter < shape.iterations; ++iter) {
    for (const bool map : {true, false}) {
      const std::string phase =
          common::strformat(map ? "map-%d" : "reduce-%d", iter);
      const double duration =
          map ? durations.map_task_seconds : durations.reduce_task_seconds;
      auto& wave = waves.emplace_back();
      wave.reserve(static_cast<std::size_t>(shape.tasks));
      for (int t = 0; t < shape.tasks; ++t) {
        pilot::ComputeUnitDescription cud;
        cud.name = phase + "-" + std::to_string(t);
        cud.executable = "python";
        cud.arguments = {"kmeans.py", "--phase", phase};
        cud.cores = 1;
        cud.memory_mb = shape.yarn ? 1024 : 2048;
        cud.duration =
            seed == 0 ? duration : duration * (1.0 + jitter.uniform(-0.1, 0.1));
        submitted_names.push_back(cud.name);
        wave.push_back(std::move(cud));
      }
    }
  }

  const std::int64_t start = SpanRecorder::now_ns();
  r.setup_s = seconds_between(round_start, start);
  recorder.reset();
  const Counters before = read_counters(session);
  std::vector<std::shared_ptr<pilot::ComputeUnit>> handles;
  for (const auto& wave : waves) {
    std::vector<std::shared_ptr<pilot::ComputeUnit>> units;
    {
      Span span(recorder, Layer::kUmSubmit);
      units = um.submit(wave);
    }
    r.submit_us.push_back(
        static_cast<double>(recorder.samples(Layer::kUmSubmit).back()) / 1e3 /
        static_cast<double>(wave.size()));
    while (true) {
      bool done = false;
      {
        Span span(recorder, Layer::kUmAllDone);
        done = um.all_done();
      }
      if (done || engine.now() >= kMaxSimTime) break;
      Span span(recorder, Layer::kEngine);
      engine.run_until(engine.now() + 5.0);
    }
    handles.insert(handles.end(), units.begin(), units.end());
    if (pilot::is_final(pilot_handle->state())) break;
  }
  const std::int64_t end = SpanRecorder::now_ns();
  const Counters after = read_counters(session);

  std::vector<std::string> done_names;
  for (const auto& unit : handles) {
    if (unit->state() == pilot::UnitState::kDone) {
      done_names.push_back(unit->description().name);
    }
  }
  r.attempted = submitted_names.size();
  r.done = done_names.size();
  r.failed = r.attempted - r.done;
  if (r.failed > 0) {
    r.errors.push_back(std::to_string(r.failed) + " of " +
                       std::to_string(r.attempted) + " units not Done");
  }
  const std::string digest = digest_names(std::move(done_names));
  if (digest != digest_names(std::move(submitted_names))) {
    r.errors.push_back("digest of Done names differs from submitted names");
  }

  auto& pins = r.pins;
  pins["digest"] = digest;
  pins["engine_events"] = engine.executed();
  pins["units_done"] = r.done;
  const auto started = session.trace().first("pilot", "agent_started");
  const auto last_done = session.trace().last("unit", "Done");
  pins["sim.ttc_s"] = started.has_value() && last_done.has_value()
                          ? last_done->time - started->time
                          : 0.0;
  for (const auto& s : session.trace().find_spans("pilot", "agent_startup")) {
    if (s.key == pilot_handle->id()) pins["sim.agent_startup_s"] = s.duration();
  }
  pins["sim.unit_startup_mean_s"] =
      session.trace().span_stats("unit", "startup").mean();

  finish_round(r, recorder, start, end, before, after, nullptr);
  return r;
}

// ---------------------------------------------------------------- tenant

struct Arrival {
  double t = 0.0;
  int tenant = 0;
};

std::string tenant_name(int i) { return "tenant-" + std::to_string(i); }

/// The seeded Poisson trace of bench/loadtest_gateway: every tenth
/// tenant submits at 10x the light rate; aggregate demand is `overload`
/// times the pilot's capacity.
std::vector<Arrival> make_arrivals(const TenantShape& shape,
                                   std::uint64_t seed) {
  const int heavy = shape.tenants / 10;
  const int light = shape.tenants - heavy;
  const double capacity_rate =
      static_cast<double>(shape.nodes * shape.cores_per_node) / shape.duration;
  const double light_rate = shape.overload * capacity_rate /
                            (static_cast<double>(light) + 10.0 * heavy);
  common::Rng rng(seed);
  std::vector<Arrival> arrivals;
  for (int i = 0; i < shape.tenants; ++i) {
    const double rate = i % 10 == 9 ? 10.0 * light_rate : light_rate;
    double t = rng.exponential(1.0 / rate);
    while (t < shape.horizon) {
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

RoundResult run_tenant(const TenantShape& shape, std::uint64_t seed,
                       bool traced) {
  RoundResult r;
  r.traced = traced;
  SpanRecorder recorder;
  const std::int64_t round_start = SpanRecorder::now_ns();

  pilot::Session session;
  install_transport(session, /*socket=*/false, traced, recorder);
  const cluster::MachineProfile machine =
      cluster::generic_profile(shape.nodes, shape.cores_per_node);
  session.register_machine(machine, hpc::SchedulerKind::kSlurm, shape.nodes);

  pilot::AgentConfig agent;
  agent.spawn_latency = 0.02;
  agent.control_plane = common::ControlPlane::kWatch;
  pilot::PilotDescription pd;
  pd.resource = "slurm://" + machine.name + "/";
  pd.nodes = shape.nodes;
  pd.runtime = 48 * 3600.0;
  pd.backend = pilot::AgentBackend::kPlain;

  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  um.set_control_plane(common::ControlPlane::kWatch);
  auto pilot_handle = pm.submit_pilot(pd, agent);
  um.add_pilot(pilot_handle);
  sim::Engine& engine = session.engine();
  while (pilot_handle->state() != pilot::PilotState::kActive &&
         engine.now() < 3600.0) {
    engine.run_until(engine.now() + 5.0);
  }
  if (pilot_handle->state() != pilot::PilotState::kActive) {
    r.errors.push_back("pilot never became active");
    return r;
  }

  tenant::GatewayConfig gc;
  gc.policy = tenant::SchedulingPolicy::kFairShare;
  gc.dispatch_window = shape.nodes * shape.cores_per_node;
  gc.accounting_journal = false;
  tenant::SubmissionGateway gateway(um, gc);
  for (int i = 0; i < shape.tenants; ++i) {
    tenant::TenantSpec spec;
    spec.id = tenant_name(i);
    gateway.add_tenant(spec);
  }

  // Descriptions for the t=0 burst (one unit per tenant, so every tenant
  // is backlogged) and for every arrival, in firing order; arrivals are
  // engine events at their exact simulated time, so the generator is
  // never late.
  const std::vector<Arrival> arrivals = make_arrivals(shape, seed);
  std::vector<int> per_tenant(static_cast<std::size_t>(shape.tenants), 0);
  std::vector<std::pair<int, pilot::ComputeUnitDescription>> units;
  units.reserve(static_cast<std::size_t>(shape.tenants) + arrivals.size());
  auto add_unit = [&](int tenant) {
    pilot::ComputeUnitDescription cud;
    cud.name = tenant_name(tenant) + "-u" +
               std::to_string(per_tenant[static_cast<std::size_t>(tenant)]++);
    cud.cores = 1;
    cud.memory_mb = 512;
    cud.duration = shape.duration;
    units.emplace_back(tenant, std::move(cud));
  };
  for (int i = 0; i < shape.tenants; ++i) add_unit(i);
  for (const Arrival& a : arrivals) add_unit(a.tenant);

  std::uint64_t rejected = 0;
  auto admit = [&](std::size_t index) {
    auto& [tenant, cud] = units[index];
    tenant::Admission admission;
    {
      Span span(recorder, Layer::kTenantAdmit);
      admission = gateway.submit(tenant_name(tenant), std::move(cud));
    }
    r.submit_us.push_back(
        static_cast<double>(recorder.samples(Layer::kTenantAdmit).back()) /
        1e3);
    if (!admission.accepted) ++rejected;
  };
  const double t0 = engine.now();
  const auto burst = static_cast<std::size_t>(shape.tenants);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    engine.schedule_at(t0 + arrivals[i].t,
                       [&admit, index = burst + i] { admit(index); });
  }

  const std::int64_t start = SpanRecorder::now_ns();
  r.setup_s = seconds_between(round_start, start);
  recorder.reset();
  const Counters before = read_counters(session);
  for (std::size_t i = 0; i < burst; ++i) admit(i);
  {
    Span span(recorder, Layer::kEngine);
    engine.run_until(t0 + shape.horizon);
  }
  const std::int64_t end = SpanRecorder::now_ns();
  const Counters after = read_counters(session);

  // Two observers of completion must agree: the store's unit documents
  // and the gateway's watch-driven accounting.
  std::vector<std::string> store_done;
  for (const auto& [id, doc] : session.store().find_all("unit")) {
    if (pilot::unit_state_from_string(doc.at("state").as_string()) ==
        pilot::UnitState::kDone) {
      store_done.push_back(doc.at("description").at("name").as_string());
    }
  }
  const std::string digest = digest_names(gateway.completed_unit_names());
  if (digest != digest_names(store_done)) {
    r.errors.push_back("gateway completions differ from Done documents");
  }
  tenant::TenantUsage total;
  std::vector<double> service;
  for (const auto& [id, usage] : gateway.accounting().tenants()) {
    total.submitted += usage.submitted;
    total.admitted += usage.admitted;
    total.completed += usage.completed;
    total.failed += usage.failed;
    service.push_back(usage.core_seconds);
  }
  r.attempted = units.size();
  r.done = total.completed;
  r.failed = rejected + total.failed;
  if (total.submitted != r.attempted || total.admitted != r.attempted ||
      r.failed != 0) {
    r.errors.push_back("admission accounting: " +
                       std::to_string(total.submitted) + " submitted, " +
                       std::to_string(total.admitted) + " admitted, " +
                       std::to_string(r.failed) + " failed or rejected");
  }
  const std::uint64_t accounted = total.completed +
                                  gateway.in_flight_count() +
                                  gateway.pending_count();
  if (accounted != total.admitted || total.completed != store_done.size()) {
    r.errors.push_back("units lost: " + std::to_string(total.admitted) +
                       " admitted, " + std::to_string(accounted) +
                       " completed, in flight or queued");
  }

  auto& pins = r.pins;
  pins["digest"] = digest;
  pins["engine_events"] = engine.executed();
  pins["units_done"] = r.done;
  pins["arrivals"] = static_cast<std::uint64_t>(arrivals.size());
  const std::vector<double>& waits = gateway.accounting().wait_samples();
  pins["sim.wait_p50_s"] = common::percentile(waits, 0.50);
  pins["sim.wait_p99_s"] = common::percentile(waits, 0.99);
  pins["sim.jain"] = tenant::jains_index(service);

  finish_round(r, recorder, start, end, before, after, &gateway);
  return r;
}

}  // namespace

Workload find_workload(const std::string& name, const std::string& scale) {
  int s = -1;
  if (scale == "full") s = 0;
  if (scale == "bench") s = 1;
  if (scale == "smoke") s = 2;
  if (s < 0) throw common::ConfigError("unknown scale: " + scale);
  Workload w;
  w.name = name;
  if (name == "kmeans_inproc") {
    const KmeansShape shapes[] = {{1000, 5000, 10}, {1000, 5000, 1},
                                  {500, 2500, 1}};
    w.kmeans = shapes[s];
  } else if (name == "kmeans_socket") {
    const KmeansShape shapes[] = {{250, 500, 100}, {250, 500, 10},
                                  {250, 500, 5}};
    w.kmeans = shapes[s];
    w.kmeans.socket = true;
  } else if (name == "kmeans_yarn") {
    const KmeansShape shapes[] = {{1000, 2500, 6}, {1000, 2500, 2},
                                  {250, 750, 1}};
    w.kmeans = shapes[s];
    w.kmeans.yarn = true;
  } else if (name == "tenant_overload") {
    const double horizons[] = {2400.0, 600.0, 120.0};
    w.tenant = true;
    w.load = TenantShape{1200, 32, 8, horizons[s], 60.0, 4.0};
    w.default_seed = 42;
  } else {
    throw common::ConfigError("unknown workload: " + name);
  }
  return w;
}

RoundResult run_round(const Workload& workload, std::uint64_t seed,
                      bool traced) {
  return workload.tenant ? run_tenant(workload.load, seed, traced)
                         : run_kmeans(workload.kmeans, seed, traced);
}

}  // namespace hoh::bench

#include "pilot/agent/agent.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"

namespace hoh::pilot {

namespace {

/// The one-container request a unit's application master asks YARN for.
yarn::ContainerRequest container_request(const ComputeUnitDescription& desc) {
  yarn::ContainerRequest req;
  req.resource = {desc.memory_mb, desc.cores};
  req.preferred_nodes = desc.preferred_nodes;
  return req;
}

}  // namespace

std::string to_string(PilotState state) {
  switch (state) {
    case PilotState::kNew:
      return "New";
    case PilotState::kPendingLaunch:
      return "PendingLaunch";
    case PilotState::kLaunching:
      return "Launching";
    case PilotState::kActive:
      return "Active";
    case PilotState::kDone:
      return "Done";
    case PilotState::kCanceled:
      return "Canceled";
    case PilotState::kFailed:
      return "Failed";
  }
  return "?";
}

std::string to_string(UnitState state) {
  switch (state) {
    case UnitState::kNew:
      return "New";
    case UnitState::kUmgrScheduling:
      return "UmgrScheduling";
    case UnitState::kPendingAgent:
      return "PendingAgent";
    case UnitState::kAgentScheduling:
      return "AgentScheduling";
    case UnitState::kStagingInput:
      return "StagingInput";
    case UnitState::kExecuting:
      return "Executing";
    case UnitState::kStagingOutput:
      return "StagingOutput";
    case UnitState::kDone:
      return "Done";
    case UnitState::kCanceled:
      return "Canceled";
    case UnitState::kFailed:
      return "Failed";
  }
  return "?";
}

PilotState pilot_state_from_string(const std::string& name) {
  static const std::map<std::string, PilotState> kNames = {
      {"New", PilotState::kNew},
      {"PendingLaunch", PilotState::kPendingLaunch},
      {"Launching", PilotState::kLaunching},
      {"Active", PilotState::kActive},
      {"Done", PilotState::kDone},
      {"Canceled", PilotState::kCanceled},
      {"Failed", PilotState::kFailed},
  };
  auto it = kNames.find(name);
  if (it == kNames.end()) {
    throw common::StateError("unknown pilot state: " + name);
  }
  return it->second;
}

UnitState unit_state_from_string(const std::string& name) {
  static const std::map<std::string, UnitState> kNames = {
      {"New", UnitState::kNew},
      {"UmgrScheduling", UnitState::kUmgrScheduling},
      {"PendingAgent", UnitState::kPendingAgent},
      {"AgentScheduling", UnitState::kAgentScheduling},
      {"StagingInput", UnitState::kStagingInput},
      {"Executing", UnitState::kExecuting},
      {"StagingOutput", UnitState::kStagingOutput},
      {"Done", UnitState::kDone},
      {"Canceled", UnitState::kCanceled},
      {"Failed", UnitState::kFailed},
  };
  auto it = kNames.find(name);
  if (it == kNames.end()) {
    throw common::StateError("unknown unit state: " + name);
  }
  return it->second;
}

std::string to_string(AgentBackend backend) {
  switch (backend) {
    case AgentBackend::kPlain:
      return "plain";
    case AgentBackend::kYarnModeI:
      return "yarn-mode1";
    case AgentBackend::kYarnModeII:
      return "yarn-mode2";
    case AgentBackend::kSparkModeI:
      return "spark-mode1";
  }
  return "?";
}

common::Json unit_to_json(const ComputeUnitDescription& desc) {
  common::Json j;
  // An empty list is left out (unit_from_json reads it back as empty):
  // most units have five, and every store document and every copy of
  // one would otherwise carry a map node for each.
  auto put_list = [&j](const char* key, common::JsonArray arr) {
    if (!arr.empty()) j[key] = std::move(arr);
  };
  auto strings = [](const std::vector<std::string>& values) {
    return common::JsonArray(values.begin(), values.end());
  };
  auto stage_list = [](const std::vector<StagedFile>& files) {
    common::JsonArray arr;
    for (const auto& f : files) {
      common::Json entry;
      entry["url"] = f.url.str();
      entry["size"] = f.size;
      arr.push_back(std::move(entry));
    }
    return arr;
  };
  j["name"] = desc.name;
  j["executable"] = desc.executable;
  put_list("arguments", strings(desc.arguments));
  j["cores"] = static_cast<std::int64_t>(desc.cores);
  j["memory_mb"] = desc.memory_mb;
  j["duration"] = desc.duration;
  j["exit_code"] = static_cast<std::int64_t>(desc.exit_code);
  j["is_mpi"] = desc.is_mpi;
  put_list("input_staging", stage_list(desc.input_staging));
  put_list("output_staging", stage_list(desc.output_staging));
  put_list("preferred_nodes", strings(desc.preferred_nodes));
  put_list("depends_on", strings(desc.depends_on));
  return j;
}

ComputeUnitDescription unit_from_json(const common::Json& doc) {
  static const common::JsonArray kNone;
  auto list = [&doc](const char* key) -> const common::JsonArray& {
    return doc.contains(key) ? doc.at(key).as_array() : kNone;
  };
  ComputeUnitDescription desc;
  desc.name = doc.at("name").as_string();
  desc.executable = doc.at("executable").as_string();
  for (const auto& a : list("arguments")) {
    desc.arguments.push_back(a.as_string());
  }
  desc.cores = static_cast<int>(doc.at("cores").as_int());
  desc.memory_mb = doc.at("memory_mb").as_int();
  desc.duration = doc.at("duration").as_number();
  desc.exit_code = static_cast<int>(doc.at("exit_code").as_int());
  desc.is_mpi = doc.at("is_mpi").as_bool();
  auto parse_stage = [](const common::JsonArray& arr) {
    std::vector<StagedFile> out;
    for (const auto& e : arr) {
      out.push_back(StagedFile{saga::Url(e.at("url").as_string()),
                               e.at("size").as_int()});
    }
    return out;
  };
  desc.input_staging = parse_stage(list("input_staging"));
  desc.output_staging = parse_stage(list("output_staging"));
  for (const auto& n : list("preferred_nodes")) {
    desc.preferred_nodes.push_back(n.as_string());
  }
  for (const auto& d : list("depends_on")) {
    desc.depends_on.push_back(d.as_string());
  }
  return desc;
}

Agent::Agent(saga::SagaContext& saga, StateStore& store,
             saga::FileTransferService& transfer, std::string pilot_id,
             const cluster::MachineProfile& machine,
             cluster::Allocation allocation, AgentBackend backend,
             AgentConfig config, yarn::YarnCluster* external_yarn)
    : saga_(saga),
      store_(store),
      transfer_(transfer),
      pilot_id_(std::move(pilot_id)),
      machine_(machine),
      allocation_(std::move(allocation)),
      backend_(backend),
      config_(config),
      external_yarn_(external_yarn) {
  if (allocation_.empty()) {
    throw common::ConfigError("Agent: empty allocation");
  }
  if (backend_ == AgentBackend::kYarnModeII && external_yarn_ == nullptr) {
    throw common::ConfigError(
        "Agent: Mode II requires an existing YARN cluster");
  }
  if (config_.transport != nullptr) {
    // Message boundary (DESIGN.md §14): PilotManager commands arrive as
    // AgentCommand messages on the agent's control endpoint.
    ctrl_endpoint_ = "agent." + pilot_id_ + ".ctrl";
    config_.transport->register_endpoint(
        ctrl_endpoint_, [this](const net::Envelope& env) {
          const auto msg = net::open_envelope<net::AgentCommand>(env);
          switch (msg.op) {
            case net::AgentCommand::kStart:
              start();
              break;
            case net::AgentCommand::kStop:
              stop();
              break;
            case net::AgentCommand::kStopFailUnits:
              stop(/*fail_units=*/true);
              break;
            default:
              throw common::StateError("Agent: unknown AgentCommand op " +
                                       std::to_string(msg.op));
          }
          return net::make_envelope(net::Ack{});
        });
  }
}

Agent::~Agent() {
  stop();
  if (!ctrl_endpoint_.empty()) {
    config_.transport->unregister_endpoint(ctrl_endpoint_);
  }
}

void Agent::start(std::function<void()> on_active) {
  saga_.trace().record(saga_.engine().now(), "pilot", "agent_started",
                       {{"pilot", pilot_id_},
                        {"backend", to_string(backend_)}});
  saga_.trace().begin_span(saga_.engine().now(), "pilot", "agent_startup",
                           pilot_id_);
  // Agent process bootstrap (interpreter, components, store connection),
  // then the LRM takes over.
  saga_.engine().schedule(machine_.agent_bootstrap_time,
                          [this, cb = std::move(on_active)] {
    if (stopped_) return;
    lrm_bootstrap([this, cb] {
      if (stopped_) return;
      active_ = true;
      saga_.trace().record(saga_.engine().now(), "pilot", "agent_active",
                           {{"pilot", pilot_id_}});
      // The Unit-Manager's queue_push wakes us through a store watch; the
      // fallback sweep only covers lost wakeups (notifications consumed
      // before activation). The heartbeat is a lease timer —
      // write_heartbeat() re-arms it, and activity renews it early
      // (renew_heartbeat_lease).
      unit_watch_ = store_.watch(
          "agent." + pilot_id_, "", [this](const WatchEvent&) {
            if (active_) poll_store();
          });
      fallback_timer_.bind(saga_.engine(), [this] {
        if (!active_) return;
        poll_store();
        fallback_timer_.arm(config_.watch_fallback_interval);
      });
      fallback_timer_.arm(config_.watch_fallback_interval);
      heartbeat_lease_.bind(saga_.engine(), [this] { write_heartbeat(); });
      write_heartbeat();
      poll_store();  // drain anything queued before activation
      if (cb) cb();
      if (config_.transport != nullptr && !config_.event_endpoint.empty()) {
        // Activation crosses the boundary as a one-way lifecycle event.
        net::send(*config_.transport, config_.event_endpoint,
                  net::AgentEvent{pilot_id_, net::AgentEvent::kActive});
      }
    });
  });
}

void Agent::lrm_bootstrap(std::function<void()> on_done) {
  switch (backend_) {
    case AgentBackend::kPlain:
      // The LRM only parses the batch environment; negligible cost.
      on_done();
      return;
    case AgentBackend::kYarnModeI: {
      const common::Seconds dt = machine_.bootstrap.yarn_bootstrap_time(
          static_cast<int>(allocation_.size()));
      saga_.engine().schedule(dt, [this, dt, cb = std::move(on_done)] {
        if (stopped_) return;
        owned_yarn_ = std::make_unique<yarn::YarnCluster>(
            saga_.engine(), machine_, allocation_, config_.yarn);
        saga_.trace().record(
            saga_.engine().now(), "pilot", "yarn_bootstrapped",
            {{"pilot", pilot_id_},
             {"seconds", common::strformat("%.2f", dt)}});
        cb();
      });
      return;
    }
    case AgentBackend::kYarnModeII: {
      // Connect to the running RM and read its REST metrics once.
      saga_.engine().schedule(2.0, [this, cb = std::move(on_done)] {
        if (stopped_) return;
        const auto metrics = external_yarn_->resource_manager()
                                 .cluster_metrics();
        saga_.trace().record(
            saga_.engine().now(), "pilot", "yarn_connected",
            {{"pilot", pilot_id_},
             {"availableMB",
              std::to_string(metrics.at("clusterMetrics")
                                 .at("availableMB")
                                 .as_int())}});
        cb();
      });
      return;
    }
    case AgentBackend::kSparkModeI: {
      const common::Seconds dt = machine_.bootstrap.spark_bootstrap_time(
          static_cast<int>(allocation_.size()));
      saga_.engine().schedule(dt, [this, dt, cb = std::move(on_done)] {
        if (stopped_) return;
        spark_ = std::make_unique<spark::SparkStandaloneCluster>(
            saga_.engine(), machine_, allocation_, config_.spark);
        // One long-lived Spark application per pilot holds all slots.
        spark::SparkAppDescriptor app;
        app.name = pilot_id_;
        app.executor_cores = allocation_.nodes()[0]->spec().cores;
        app.executor_memory_mb =
            allocation_.nodes()[0]->spec().memory_mb - 2048;
        spark_app_id_ = spark_->submit_application(app);
        saga_.trace().record(
            saga_.engine().now(), "pilot", "spark_bootstrapped",
            {{"pilot", pilot_id_},
             {"seconds", common::strformat("%.2f", dt)}});
        cb();
      });
      return;
    }
  }
  throw common::ConfigError("Agent: unknown backend");
}

void Agent::lrm_teardown() {
  if (owned_yarn_ != nullptr) owned_yarn_->shutdown();
  if (spark_ != nullptr) {
    if (!spark_app_id_.empty()) {
      spark_->finish_application(spark_app_id_);
    }
    spark_->shutdown();
  }
}

void Agent::stop(bool fail_units) {
  if (stopped_) return;
  const bool was_active = active_;
  stopped_ = true;
  active_ = false;
  if (unit_watch_.valid()) {
    store_.unwatch(unit_watch_);
    unit_watch_ = WatchHandle{};
  }
  fallback_timer_.cancel();
  heartbeat_lease_.cancel();
  drain_recheck_.cancel();
  capacity_listeners_.clear();
  drain_callback_ = nullptr;
  if (was_active) write_heartbeat();  // final tombstone (alive=false)
  // A deliberate stop cancels the backlog (sink state); an involuntary
  // one fails it, which is the only final state the Unit-Manager may
  // requeue onto a surviving pilot.
  const UnitState backlog_final =
      fail_units ? UnitState::kFailed : UnitState::kCanceled;
  for (auto& unit : queue_) {
    set_unit_state(*unit, backlog_final);
  }
  queue_.clear();
  for (auto& unit : waiting_for_shared_am_) {
    set_unit_state(*unit, backlog_final);
  }
  waiting_for_shared_am_.clear();
  if (fail_units) {
    // The allocation died mid-execution: in-flight units are lost too.
    // finish_unit releases their node/core ledgers so the nodes return
    // to the batch pool clean for the next (resubmitted) pilot.
    auto running = running_units_;
    for (auto& [id, unit] : running) {
      saga_.engine().cancel(unit->exec_event);
      finish_unit(unit, UnitState::kFailed);
    }
  }
  lrm_teardown();
  saga_.trace().record(saga_.engine().now(), "pilot", "agent_stopped",
                       {{"pilot", pilot_id_},
                        {"failed_units", fail_units ? "true" : "false"}});
}

void Agent::write_heartbeat() {
  common::Json doc;
  doc["pilot"] = pilot_id_;
  doc["alive"] = !stopped_;
  doc["last_heartbeat"] = saga_.engine().now();
  doc["units_completed"] = static_cast<std::int64_t>(units_completed_);
  doc["units_failed"] = static_cast<std::int64_t>(units_failed_);
  doc["units_running"] = static_cast<std::int64_t>(running_);
  store_.put("heartbeat", pilot_id_, std::move(doc));
  last_heartbeat_at_ = saga_.engine().now();
  if (!stopped_) heartbeat_lease_.arm(config_.heartbeat_interval);
}

void Agent::renew_heartbeat_lease() {
  if (!active_) return;
  if (saga_.engine().now() - last_heartbeat_at_ <
      config_.heartbeat_interval * 0.5) {
    return;
  }
  write_heartbeat();  // re-arms the lease, pushing the next write out
}

void Agent::on_capacity_event(std::function<void()> cb) {
  capacity_listeners_.push_back(std::move(cb));
}

void Agent::notify_capacity_event() {
  for (const auto& fn : capacity_listeners_) fn();
}

void Agent::poll_store() {
  if (!active_) return;
  const auto ids = store_.queue_pop_all("agent." + pilot_id_);
  for (const auto& id : ids) {
    auto doc = store_.get("unit", id);
    if (!doc.has_value()) continue;
    auto unit = std::allocate_shared<UnitRec>(
        common::PoolAllocator<UnitRec>(unit_arena_));
    unit->id = id;
    unit->desc = unit_from_json(doc->at("description"));
    set_unit_state(*unit, UnitState::kAgentScheduling);
    queue_.push_back(std::move(unit));
  }
  schedule_queued();
  if (!ids.empty()) {
    renew_heartbeat_lease();
    notify_capacity_event();  // backlog grew
  }
}

void Agent::set_unit_state(UnitRec& unit, UnitState state) {
  if (is_final(unit.state)) return;
  unit.state = state;
  store_.update("unit", unit.id,
                {{"state", common::Json(to_string(state))}});
  saga_.trace().record(saga_.engine().now(), "unit", to_string(state),
                       {{"unit", unit.id}, {"pilot", pilot_id_}});
  if (is_final(state)) {
    saga_.trace().end_span(saga_.engine().now(), "unit", "exec", unit.id);
  }
  if (state == UnitState::kExecuting) {
    saga_.trace().begin_span(saga_.engine().now(), "unit", "exec", unit.id);
    saga_.trace().end_span(saga_.engine().now(), "unit", "startup", unit.id);
    if (!saw_first_unit_) {
      saw_first_unit_ = true;
      saga_.trace().record(saga_.engine().now(), "pilot",
                           "first_unit_executing", {{"pilot", pilot_id_}});
      saga_.trace().end_span(saga_.engine().now(), "pilot", "agent_startup",
                             pilot_id_);
    }
  }
}

void Agent::schedule_queued() {
  if (!active_) return;
  std::deque<std::shared_ptr<UnitRec>> still_waiting;
  // Monotone-failure cutoff (DESIGN.md §13): within one pass capacity
  // only shrinks (dispatch allocates; releases arrive as later engine
  // events), so once an ask has failed, any later non-MPI ask needing at
  // least as many cores and as much memory must fail too and is skipped
  // without a node scan or an RM metrics call. MPI units are always
  // tried: gang allocation can succeed where single-node placement
  // failed.
  int failed_cores = -1;
  common::MemoryMb failed_mb = 0;
  while (!queue_.empty()) {
    auto unit = queue_.front();
    queue_.pop_front();
    const bool dominated = failed_cores >= 0 && !unit->desc.is_mpi &&
                           unit->desc.cores >= failed_cores &&
                           unit->desc.memory_mb >= failed_mb;
    if (dominated) {
      still_waiting.push_back(std::move(unit));
      continue;
    }
    if (dispatch(unit)) continue;
    if (!unit->desc.is_mpi &&
        (failed_cores < 0 || (unit->desc.cores <= failed_cores &&
                              unit->desc.memory_mb <= failed_mb))) {
      failed_cores = unit->desc.cores;
      failed_mb = unit->desc.memory_mb;
    }
    still_waiting.push_back(std::move(unit));
  }
  queue_ = std::move(still_waiting);
}

void Agent::note_node_release(const cluster::Node* node) {
  if (plain_cursor_ == 0) return;
  if (node_pos_stale_) {
    node_pos_.clear();
    const auto& nodes = allocation_.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      node_pos_[nodes[i].get()] = i;
    }
    node_pos_stale_ = false;
  }
  const auto it = node_pos_.find(node);
  plain_cursor_ =
      it == node_pos_.end() ? 0 : std::min(plain_cursor_, it->second);
}

bool Agent::dispatch(const std::shared_ptr<UnitRec>& unit) {
  switch (backend_) {
    case AgentBackend::kPlain: {
      // Continuous scheduler: first node with enough free cores+memory.
      const cluster::ResourceRequest req{unit->desc.cores,
                                         unit->desc.memory_mb};
      const auto& nodes = allocation_.nodes();
      // Advance the first-fit cursor past exhausted nodes; every
      // non-draining node below it has zero free cores and cannot host
      // any unit that wants a core, so the scan starts at the cursor.
      if (plain_cursor_ > nodes.size()) plain_cursor_ = 0;
      while (plain_cursor_ < nodes.size() &&
             nodes[plain_cursor_]->free_cores() == 0 &&
             !node_draining(nodes[plain_cursor_]->name())) {
        ++plain_cursor_;
      }
      const std::size_t start = unit->desc.cores > 0 ? plain_cursor_ : 0;
      for (std::size_t i = start; i < nodes.size(); ++i) {
        const auto& node = nodes[i];
        if (node_draining(node->name())) continue;
        if (node->allocate(req)) {
          unit->node = node.get();
          saga_.trace().record(saga_.engine().now(), "unit", "placed",
                               {{"unit", unit->id}, {"node", node->name()}});
          exec_plain(unit);
          return true;
        }
      }
      // MPI units gang-schedule across nodes when no single node can
      // host them (mpiexec spans the allocation).
      if (unit->desc.is_mpi && try_gang_allocate(*unit)) {
        std::string nodes;
        for (const auto& [node, piece] : unit->pieces) {
          if (!nodes.empty()) nodes += ",";
          nodes += node->name();
        }
        saga_.trace().record(saga_.engine().now(), "unit", "placed",
                             {{"unit", unit->id}, {"node", nodes}});
        exec_plain(unit);
        return true;
      }
      return false;  // stays queued until capacity frees up
    }
    case AgentBackend::kYarnModeI:
    case AgentBackend::kYarnModeII: {
      // The YARN scheduler gates on *memory and cores* using the RM's
      // free capacity (the REST metrics' availableMB, paper SS-III-C),
      // accounting for submissions whose containers are not visible in
      // the RM's ledger yet.
      yarn::ResourceManager& rm = yarn_cluster()->resource_manager();
      const yarn::YarnConfig& ycfg = rm.config();
      const yarn::Resource cu =
          ycfg.normalize({unit->desc.memory_mb, unit->desc.cores});
      common::MemoryMb need = cu.memory_mb;
      if (!config_.reuse_yarn_app || shared_am_ == nullptr) {
        need += ycfg.normalize(config_.yarn.yarn.am_resource).memory_mb;
      }
      if (rm.available().memory_mb - yarn_inflight_mb_ < need) {
        return false;
      }
      // Data-aware extension: steer the unit towards the node holding
      // most HDFS blocks of its first resident input.
      if (config_.data_aware_scheduling &&
          unit->desc.preferred_nodes.empty()) {
        for (const auto& f : unit->desc.input_staging) {
          if (f.url.scheme() == "hdfs" &&
              yarn_cluster()->hdfs().exists(f.url.path())) {
            const auto best = yarn_cluster()->hdfs().best_node(f.url.path());
            if (!best.empty()) unit->desc.preferred_nodes.push_back(best);
            break;
          }
        }
      }
      unit->yarn_reserved_mb = need;
      yarn_inflight_mb_ += need;
      exec_yarn(unit);
      return true;
    }
    case AgentBackend::kSparkModeI:
      // The Spark scheduler's own wave queueing handles backpressure.
      exec_spark(unit);
      return true;
  }
  return false;
}

void Agent::enqueue_transfer(const saga::Url& src, const saga::Url& dst,
                             common::Bytes bytes,
                             std::function<void()> done) {
  auto start = [this, src, dst, bytes, done = std::move(done)] {
    active_staging_ += 1;
    transfer_.transfer(src, dst, bytes, [this, done] {
      staging_slot_released();
      if (!stopped_ && done) done();
    });
  };
  if (active_staging_ < config_.max_concurrent_staging) {
    start();
  } else {
    staging_backlog_.push_back(std::move(start));
  }
}

void Agent::staging_slot_released() {
  active_staging_ = active_staging_ > 0 ? active_staging_ - 1 : 0;
  if (stopped_ || staging_backlog_.empty()) return;
  if (active_staging_ >= config_.max_concurrent_staging) return;
  auto next = std::move(staging_backlog_.front());
  staging_backlog_.pop_front();
  next();
}

void Agent::stage_in(std::shared_ptr<UnitRec> unit,
                     std::function<void()> next) {
  // Inputs already resident in this pilot's HDFS need no movement.
  std::vector<StagedFile> to_move;
  for (const auto& f : unit->desc.input_staging) {
    if (f.url.scheme() == "hdfs" && yarn_cluster() != nullptr &&
        yarn_cluster()->hdfs().exists(f.url.path())) {
      continue;
    }
    to_move.push_back(f);
  }
  if (to_move.empty()) {
    next();
    return;
  }
  set_unit_state(*unit, UnitState::kStagingInput);
  auto remaining = std::make_shared<std::size_t>(to_move.size());
  for (const auto& f : to_move) {
    const saga::Url dst("local://" + machine_.name + "/tmp/" + unit->id);
    enqueue_transfer(f.url, dst, f.size, [unit, remaining, next] {
      if (--(*remaining) == 0) next();
    });
  }
}

void Agent::stage_out(std::shared_ptr<UnitRec> unit,
                      std::function<void()> next) {
  if (unit->desc.output_staging.empty()) {
    next();
    return;
  }
  set_unit_state(*unit, UnitState::kStagingOutput);
  auto remaining =
      std::make_shared<std::size_t>(unit->desc.output_staging.size());
  for (const auto& f : unit->desc.output_staging) {
    const saga::Url src("local://" + machine_.name + "/tmp/" + unit->id);
    enqueue_transfer(src, f.url, f.size, [unit, remaining, next] {
      if (--(*remaining) == 0) next();
    });
  }
}

bool Agent::try_gang_allocate(UnitRec& unit) {
  // Greedy: walk nodes taking as many cores as each offers, memory split
  // proportionally to the cores taken. All-or-nothing.
  int remaining = unit.desc.cores;
  std::vector<std::pair<cluster::Node*, cluster::ResourceRequest>> taken;
  for (const auto& node : allocation_.nodes()) {
    if (remaining <= 0) break;
    if (node_draining(node->name())) continue;
    const int cores = std::min(remaining, node->free_cores());
    if (cores <= 0) continue;
    const common::MemoryMb memory =
        unit.desc.memory_mb * cores / unit.desc.cores;
    const cluster::ResourceRequest piece{cores, memory};
    if (!node->allocate(piece)) continue;
    taken.emplace_back(node.get(), piece);
    remaining -= cores;
  }
  if (remaining > 0) {
    for (const auto& [node, piece] : taken) node->release(piece);
    return false;
  }
  unit.pieces = std::move(taken);
  return true;
}

void Agent::release_unit(UnitRec& unit) {
  if (unit.node != nullptr) {
    unit.node->release(
        cluster::ResourceRequest{unit.desc.cores, unit.desc.memory_mb});
    note_node_release(unit.node);
    unit.node = nullptr;
  }
  for (const auto& [node, piece] : unit.pieces) {
    node->release(piece);
    note_node_release(node);
  }
  unit.pieces.clear();
  if (unit.yarn_reserved_mb > 0) {
    yarn_inflight_mb_ -= unit.yarn_reserved_mb;
    unit.yarn_reserved_mb = 0;
  }
  unit.exec_event = sim::EventHandle{};
  unit.am = nullptr;
  running_units_.erase(unit.id);
  running_ = running_ > 0 ? running_ - 1 : 0;
}

void Agent::withdraw_unit(UnitRec& unit) {
  saga_.engine().cancel(unit.exec_event);
  if (unit.am != nullptr) {
    unit.am->kill_container(unit.container_id);
    if (unit.dedicated_app) unit.am->unregister(false);
    unit.container_id.clear();
    unit.exec_node.clear();
    unit.dedicated_app = false;
  }
  release_unit(unit);
}

void Agent::finish_unit(std::shared_ptr<UnitRec> unit,
                        UnitState final_state) {
  release_unit(*unit);
  set_unit_state(*unit, final_state);
  if (final_state == UnitState::kDone) {
    ++units_completed_;
  } else if (final_state == UnitState::kFailed) {
    ++units_failed_;
  }
  // Capacity freed: try to dispatch more queued units.
  if (active_) schedule_queued();
  renew_heartbeat_lease();
  notify_capacity_event();
}

common::Seconds Agent::wrapper_time_for(const std::string& node) {
  auto it = wrapper_cache_.find(node);
  if (it != wrapper_cache_.end() && it->second) {
    return config_.wrapper_cached_time;
  }
  wrapper_cache_[node] = true;
  return config_.wrapper_setup_time;
}

void Agent::exec_plain(std::shared_ptr<UnitRec> unit) {
  running_ += 1;
  running_units_[unit->id] = unit;
  stage_in(unit, [this, unit] {
    const common::Seconds launch_latency =
        unit->desc.is_mpi ? config_.mpiexec_latency : config_.spawn_latency;
    // The Task Spawner handles one launch at a time; later units wait
    // for it, then load their runtime environment in parallel.
    const common::Seconds now = saga_.engine().now();
    const common::Seconds spawn_starts = std::max(now, spawner_free_at_);
    spawner_free_at_ = spawn_starts + launch_latency;
    const common::Seconds delay =
        (spawn_starts - now) + launch_latency + config_.env_load_seconds;
    saga_.engine().schedule(delay, [this, unit] {
          if (stopped_) return;
          set_unit_state(*unit, UnitState::kExecuting);
          // A degraded node (FailureInjector slow-node episode) stretches
          // the payload wall time by its current speed factor.
          common::Seconds duration = unit->desc.duration;
          if (unit->node != nullptr) {
            duration *= unit->node->speed_factor();
          }
          unit->exec_event =
              saga_.engine().schedule(duration, [this, unit] {
            if (stopped_) return;
            unit->exec_event = sim::EventHandle{};
            // The Task Spawner "collects the exit code" (paper SS-III-B).
            if (unit->desc.exit_code != 0) {
              finish_unit(unit, UnitState::kFailed);
              return;
            }
            stage_out(unit, [this, unit] {
              finish_unit(unit, UnitState::kDone);
            });
          });
        });
  });
}

void Agent::exec_yarn(std::shared_ptr<UnitRec> unit) {
  running_ += 1;
  running_units_[unit->id] = unit;
  yarn::ResourceManager& rm = yarn_cluster()->resource_manager();
  saga_.trace().begin_span(saga_.engine().now(), "unit", "yarn_submit",
                           unit->id);
  stage_in(unit, [this, unit, &rm] {
    // Serialized `yarn jar` CLI submission round trip.
    const common::Seconds now = saga_.engine().now();
    const common::Seconds submit_starts = std::max(now, spawner_free_at_);
    spawner_free_at_ = submit_starts + config_.yarn_submit_latency;
    saga_.engine().schedule(
        (submit_starts - now) + config_.yarn_submit_latency,
        [this, unit, &rm] { exec_yarn_submit(unit, rm); });
  });
}

void Agent::exec_yarn_submit(std::shared_ptr<UnitRec> unit,
                             yarn::ResourceManager& rm) {
  if (stopped_) return;
  if (config_.reuse_yarn_app) {
    if (shared_am_ != nullptr) {
      shared_am_->request_containers(
          1, container_request(unit->desc),
          [this, unit](const yarn::Container& c) {
            exec_yarn_in_container(unit, *shared_am_, c, false);
          });
      return;
    }
    waiting_for_shared_am_.push_back(unit);
    if (!shared_app_id_.empty()) return;  // AM already requested
    yarn::AppDescriptor app;
    app.name = "radical-pilot-shared";
    app.am_resource = config_.yarn.yarn.am_resource;
    app.on_am_start = [this](yarn::ApplicationMaster& am) {
      if (stopped_) return;
      shared_am_ = &am;
      auto waiting = std::move(waiting_for_shared_am_);
      waiting_for_shared_am_.clear();
      for (auto& w : waiting) {
        shared_am_->request_containers(
            1, container_request(w->desc),
            [this, w](const yarn::Container& c) {
              exec_yarn_in_container(w, *shared_am_, c, false);
            });
      }
    };
    shared_app_id_ = rm.submit_application(std::move(app));
    return;
  }
  // Paper default: one YARN application (own AM) per Compute-Unit.
  yarn::AppDescriptor app;
  app.name = unit->desc.name;
  app.am_resource = config_.yarn.yarn.am_resource;
  app.on_am_start = [this, unit](yarn::ApplicationMaster& am) {
    if (stopped_) return;
    am.request_containers(1, container_request(unit->desc),
                          [this, unit, &am](const yarn::Container& c) {
                            exec_yarn_in_container(unit, am, c, true);
                          });
  };
  rm.submit_application(std::move(app));
}

void Agent::exec_yarn_in_container(std::shared_ptr<UnitRec> unit,
                                   yarn::ApplicationMaster& am,
                                   const yarn::Container& container,
                                   bool dedicated_app) {
  const std::string container_id = container.id;
  const std::string node = container.node;
  unit->am = &am;
  unit->container_id = container_id;
  unit->exec_node = node;
  unit->dedicated_app = dedicated_app;
  saga_.trace().record(saga_.engine().now(), "unit", "placed",
                       {{"unit", unit->id}, {"node", node}});
  am.launch(container_id, [this, unit, &am, container_id, node,
                           dedicated_app] {
    if (stopped_) return;
    // Wrapper script: sets up the RP environment inside the container
    // (cached per node by the NM's resource localization).
    saga_.engine().schedule(wrapper_time_for(node), [this, unit, &am,
                                                     container_id,
                                                     dedicated_app] {
      if (stopped_) return;
      if (unit->container_id != container_id) return;  // preempted
      set_unit_state(*unit, UnitState::kExecuting);
      saga_.trace().end_span(saga_.engine().now(), "unit", "yarn_submit",
                             unit->id);
      unit->exec_event =
          saga_.engine().schedule(unit->desc.duration, [this, unit, &am,
                                                        container_id,
                                                        dedicated_app] {
        if (stopped_) return;
        unit->exec_event = sim::EventHandle{};
        unit->am = nullptr;
        if (unit->desc.exit_code != 0) {
          am.kill_container(container_id);
          if (dedicated_app) am.unregister(false);
          finish_unit(unit, UnitState::kFailed);
          return;
        }
        am.complete_container(container_id);
        if (dedicated_app) am.unregister(true);
        stage_out(unit, [this, unit] {
          finish_unit(unit, UnitState::kDone);
        });
      });
    });
  });
}

// --------------------------------------------------------- elasticity ---

AgentCapacity Agent::capacity() {
  AgentCapacity cap;
  for (const auto& node : allocation_.nodes()) {
    if (node_draining(node->name())) {
      cap.draining_nodes += 1;
      continue;
    }
    cap.nodes += 1;
    cap.total_cores += node->spec().cores;
    cap.used_cores += node->used_cores();
    cap.total_memory_mb += node->spec().memory_mb;
    cap.used_memory_mb += node->used_memory_mb();
  }
  if (yarn::YarnCluster* yc = yarn_cluster()) {
    // Memory-only scheduling leaves node core ledgers untouched; the RM
    // ledger is the authority for YARN usage.
    const yarn::Resource used = yc->resource_manager().total_allocated();
    cap.used_cores = used.vcores;
    cap.used_memory_mb = used.memory_mb;
  }
  return cap;
}

std::vector<ComputeUnitDescription> Agent::queued_descriptions() const {
  std::vector<ComputeUnitDescription> out;
  out.reserve(queue_.size());
  for (const auto& unit : queue_) out.push_back(unit->desc);
  return out;
}

void Agent::add_nodes(std::vector<std::shared_ptr<cluster::Node>> nodes) {
  if (backend_ == AgentBackend::kYarnModeII) {
    throw common::StateError(
        "Agent: Mode II pilots cannot grow — the external cluster is not "
        "ours to resize");
  }
  if (nodes.empty() || stopped_) return;
  if (!active_) {
    // Bootstrap has not finished; the LRM picks the nodes up when it
    // builds the backend cluster from the (now larger) allocation.
    for (auto& node : nodes) allocation_.add(std::move(node));
    plain_cursor_ = 0;
    node_pos_stale_ = true;
    return;
  }
  // Per-node worker-daemon start before the capacity becomes usable.
  common::Seconds dt = machine_.bootstrap.configure_time;
  if (backend_ == AgentBackend::kYarnModeI) {
    dt += machine_.bootstrap.worker_daemon_start *
          static_cast<double>(nodes.size());
  } else if (backend_ == AgentBackend::kSparkModeI) {
    dt += machine_.bootstrap.spark_worker_start *
          static_cast<double>(nodes.size());
  }
  saga_.engine().schedule(dt, [this, nodes = std::move(nodes)] {
    if (stopped_) return;
    for (const auto& node : nodes) {
      if (owned_yarn_ != nullptr) owned_yarn_->add_nodes({node});
      if (spark_ != nullptr) spark_->add_worker(node);
      allocation_.add(node);
    }
    plain_cursor_ = 0;
    node_pos_stale_ = true;
    saga_.trace().record(
        saga_.engine().now(), "pilot", "resize",
        {{"pilot", pilot_id_},
         {"action", "grow"},
         {"nodes", std::to_string(nodes.size())},
         {"total", std::to_string(allocation_.size())}});
    schedule_queued();
    notify_capacity_event();  // capacity grew
  });
}

void Agent::decommission_nodes(std::vector<std::string> names,
                               common::Seconds drain_timeout,
                               std::function<void(bool)> on_released) {
  if (names.empty()) {
    if (on_released) on_released(true);
    return;
  }
  if (!drain_names_.empty()) {
    throw common::StateError("Agent: a drain is already in progress");
  }
  const std::string head = allocation_.nodes().front()->name();
  for (const auto& name : names) {
    if (name == head) {
      throw common::ConfigError(
          "Agent: cannot decommission the head node (hosts the agent and "
          "master daemons)");
    }
    const bool held = std::any_of(
        allocation_.nodes().begin(), allocation_.nodes().end(),
        [&](const std::shared_ptr<cluster::Node>& n) {
          return n->name() == name;
        });
    if (!held) {
      throw common::NotFoundError("Agent: node " + name +
                                  " is not part of the allocation");
    }
  }
  drain_names_ = names;
  drain_deadline_ = saga_.engine().now() + drain_timeout;
  drain_escalated_ = false;
  drain_callback_ = std::move(on_released);
  for (const auto& name : names) draining_.insert(name);
  saga_.trace().record(saga_.engine().now(), "pilot", "drain_started",
                       {{"pilot", pilot_id_},
                        {"nodes", std::to_string(names.size())}});
  if (owned_yarn_ != nullptr) owned_yarn_->decommission_nodes(names);
  if (spark_ != nullptr) {
    for (const auto& name : names) spark_->decommission_worker(name);
  }
  // Drain progress has no single push source (NM container exits, HDFS
  // re-replication), so the agent re-checks on a self re-arming timer —
  // bounded to the drain window, not the whole pilot lifetime.
  drain_recheck_.bind(saga_.engine(), [this] {
    if (stopped_ || drain_names_.empty()) return;
    drain_poll();
    if (!stopped_ && !drain_names_.empty()) {
      drain_recheck_.arm(config_.poll_interval);
    }
  });
  drain_recheck_.arm(config_.poll_interval);
}

void Agent::drain_poll() {
  if (stopped_) return;
  // Compute drained: no unit resources left on any leaving node.
  bool compute_drained = true;
  for (const auto& node : allocation_.nodes()) {
    if (!node_draining(node->name())) continue;
    if (node->used_cores() > 0 || node->used_memory_mb() > 0) {
      compute_drained = false;
      break;
    }
  }
  if (compute_drained && owned_yarn_ != nullptr) {
    for (const auto& name : drain_names_) {
      yarn::NodeManager& nm =
          owned_yarn_->resource_manager().node_manager(name);
      if (nm.alive() && nm.live_count() > 0) {
        compute_drained = false;
        break;
      }
    }
  }
  if (compute_drained && spark_ != nullptr) {
    for (const auto& name : drain_names_) {
      if (!spark_->worker_drained(name)) {
        compute_drained = false;
        break;
      }
    }
  }
  if (!compute_drained) {
    if (!drain_escalated_ && saga_.engine().now() >= drain_deadline_) {
      drain_escalate();
    }
    return;
  }
  // Data drained: blocks re-replicated off leaving DataNodes. This
  // barrier is never skipped — a drain timeout may preempt compute, but
  // releasing a node before its blocks are safe would lose data.
  if (owned_yarn_ != nullptr &&
      !owned_yarn_->decommission_complete(drain_names_)) {
    return;
  }
  drain_finish();
}

void Agent::drain_escalate() {
  drain_escalated_ = true;
  drain_timeouts_ += 1;
  saga_.trace().record(saga_.engine().now(), "pilot", "drain_timeout",
                       {{"pilot", pilot_id_},
                        {"nodes", std::to_string(drain_names_.size())}});
  // Preempt executing units on the leaving nodes; requeue_unit puts them
  // back on the agent queue, so they re-run elsewhere — escalation costs
  // wasted work, never lost units.
  std::vector<std::shared_ptr<UnitRec>> victims;
  for (const auto& [id, unit] : running_units_) {
    bool on_leaving = false;
    // A YARN unit is preemptible as soon as it holds a container on a
    // leaving node, even before it reaches Executing — fail_node below
    // would otherwise kill the container with no one requeueing the unit.
    if (unit->am != nullptr && node_draining(unit->exec_node)) {
      on_leaving = true;
    }
    if (unit->state == UnitState::kExecuting && unit->exec_event.valid()) {
      if (unit->node != nullptr && node_draining(unit->node->name())) {
        on_leaving = true;
      }
      for (const auto& [node, piece] : unit->pieces) {
        if (node_draining(node->name())) on_leaving = true;
      }
    }
    if (on_leaving) victims.push_back(unit);
  }
  for (const auto& unit : victims) requeue_unit(unit);
  // Anything still pinning a leaving NM (e.g. an Application Master
  // container) is evicted through the RM's node-loss path; the DataNode
  // stays alive, so no block is lost.
  if (owned_yarn_ != nullptr) {
    yarn::ResourceManager& rm = owned_yarn_->resource_manager();
    for (const auto& name : drain_names_) {
      yarn::NodeManager& nm = rm.node_manager(name);
      if (nm.alive() && nm.live_count() > 0) rm.fail_node(name);
    }
  }
  schedule_queued();
  notify_capacity_event();  // preempted units re-entered the backlog
}

void Agent::drain_finish() {
  drain_recheck_.cancel();
  if (owned_yarn_ != nullptr) owned_yarn_->remove_nodes(drain_names_);
  for (const auto& name : drain_names_) {
    if (spark_ != nullptr) spark_->remove_worker(name);
    allocation_.remove(name);
    draining_.erase(name);
    wrapper_cache_.erase(name);
  }
  plain_cursor_ = 0;
  node_pos_stale_ = true;
  saga_.trace().record(
      saga_.engine().now(), "pilot", "resize",
      {{"pilot", pilot_id_},
       {"action", "shrink"},
       {"nodes", std::to_string(drain_names_.size())},
       {"total", std::to_string(allocation_.size())},
       {"clean", drain_escalated_ ? "false" : "true"}});
  const bool clean = !drain_escalated_;
  drain_names_.clear();
  auto cb = std::move(drain_callback_);
  drain_callback_ = nullptr;
  if (cb) cb(clean);
  notify_capacity_event();  // capacity shrank
}

bool Agent::preempt_unit(const std::string& unit_id) {
  // Still queued: no resources held, just take it off the queue.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if ((*it)->id != unit_id) continue;
    auto unit = *it;
    queue_.erase(it);
    saga_.trace().record(saga_.engine().now(), "unit", "preempted",
                         {{"unit", unit->id}, {"pilot", pilot_id_}});
    set_unit_state(*unit, UnitState::kFailed);
    ++units_preempted_;
    notify_capacity_event();
    return true;
  }
  auto it = running_units_.find(unit_id);
  if (it == running_units_.end()) return false;
  auto unit = it->second;
  // Only a unit whose payload is actually running is preemptible here
  // (the drain path's criterion): one mid-staging or waiting on the
  // serialized Task Spawner holds continuations that must run out.
  if (unit->state != UnitState::kExecuting ||
      (!unit->exec_event.valid() && unit->am == nullptr)) {
    return false;
  }
  withdraw_unit(*unit);
  saga_.trace().record(saga_.engine().now(), "unit", "preempted",
                       {{"unit", unit->id}, {"pilot", pilot_id_}});
  // kFailed is legal from any non-final state and is the parking state
  // the caller redispatches from (kFailed -> kPendingAgent).
  set_unit_state(*unit, UnitState::kFailed);
  ++units_preempted_;
  // Capacity freed: the agent's own queued units may fit now.
  if (active_) schedule_queued();
  notify_capacity_event();
  return true;
}

void Agent::requeue_unit(const std::shared_ptr<UnitRec>& unit) {
  withdraw_unit(*unit);
  saga_.trace().end_span(saga_.engine().now(), "unit", "exec", unit->id);
  saga_.trace().record(saga_.engine().now(), "unit", "preempted",
                       {{"unit", unit->id}, {"pilot", pilot_id_}});
  set_unit_state(*unit, UnitState::kAgentScheduling);
  queue_.push_back(unit);
}

void Agent::exec_spark(std::shared_ptr<UnitRec> unit) {
  running_ += 1;
  running_units_[unit->id] = unit;
  stage_in(unit, [this, unit] {
    set_unit_state(*unit, UnitState::kExecuting);
    spark_->run_stage(spark_app_id_, unit->desc.cores,
                      [unit](int) { return unit->desc.duration; },
                      [this, unit] {
                        if (stopped_) return;
                        if (unit->desc.exit_code != 0) {
                          finish_unit(unit, UnitState::kFailed);
                          return;
                        }
                        stage_out(unit, [this, unit] {
                          finish_unit(unit, UnitState::kDone);
                        });
                      });
  });
}

}  // namespace hoh::pilot

#include "pilot/agent/agent.h"

#include <algorithm>
#include <array>

#include "common/error.h"

namespace hoh::pilot {

namespace {

/// The per-unit trace labels, interned once instead of on every record.
const sim::TraceName kUnitTrace("unit");
const sim::TraceName kExecSpan("exec");
const sim::TraceName kStartupSpan("startup");
const sim::TraceName kPlaced("placed");

sim::TraceName state_label(UnitState state) {
  static const auto labels = [] {
    std::array<sim::TraceName,
               static_cast<std::size_t>(UnitState::kFailed) + 1>
        out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = to_string(static_cast<UnitState>(i));
    }
    return out;
  }();
  return labels[static_cast<std::size_t>(state)];
}

}  // namespace

Agent::Agent(saga::SagaContext& saga, StateStore& store,
             net::Transport& transport,
             saga::FileTransferService& transfer, std::string pilot_id,
             const cluster::MachineProfile& machine,
             cluster::Allocation allocation, AgentBackend backend,
             AgentConfig config, yarn::YarnCluster* external_yarn)
    : saga_(saga),
      store_(store),
      transport_(transport),
      transfer_(transfer),
      pilot_id_(std::move(pilot_id)),
      machine_(machine),
      allocation_(std::move(allocation)),
      backend_(backend),
      config_(config),
      ctrl_endpoint_("agent." + pilot_id_ + ".ctrl") {
  if (allocation_.empty()) {
    throw common::ConfigError("Agent: empty allocation");
  }
  switch (backend_) {
    case AgentBackend::kPlain:
      launch_ = make_plain_launch(*this);
      break;
    case AgentBackend::kYarnModeI:
      launch_ = make_yarn_launch(*this, nullptr);
      break;
    case AgentBackend::kYarnModeII:
      if (external_yarn == nullptr) {
        throw common::ConfigError(
            "Agent: Mode II requires an existing YARN cluster");
      }
      launch_ = make_yarn_launch(*this, external_yarn);
      break;
    case AgentBackend::kSparkModeI:
      launch_ = make_spark_launch(*this);
      break;
  }
  // Message boundary (DESIGN.md §14): PilotManager commands arrive as
  // AgentCommand messages on the agent's control endpoint.
  transport_.register_endpoint(
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

Agent::~Agent() {
  stop();
  transport_.unregister_endpoint(ctrl_endpoint_);
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
    launch_->bootstrap([this, cb] {
      if (stopped_) return;
      active_ = true;
      saga_.trace().record(saga_.engine().now(), "pilot", "agent_active",
                           {{"pilot", pilot_id_}});
      // The Unit-Manager's queue_push wakes us through a store watch; the
      // fallback sweep only covers lost wakeups (notifications consumed
      // before activation). The heartbeat is a lease timer —
      // write_heartbeat() re-arms it, and activity renews it early
      // (renew_heartbeat_lease).
      // Every push after this watch is registered is delivered once,
      // and only this agent pops the queue. A delivery finds its unit
      // either still queued (its poll pops it and every unit pushed
      // after it) or popped ahead; the latter skips the store.
      unit_watch_ = store_.watch(
          "agent." + pilot_id_, "", [this](const WatchEvent&) {
            if (!active_) return;
            if (popped_ahead_ > 0) {
              --popped_ahead_;
              schedule_queued();
              return;
            }
            const std::size_t popped = poll_store();
            if (popped > 0) popped_ahead_ += popped - 1;
          });
      fallback_timer_.bind(saga_.engine(), [this] {
        if (!active_) return;
        popped_ahead_ += poll_store();  // their deliveries are pending
        fallback_timer_.arm(config_.watch_fallback_interval);
      });
      fallback_timer_.arm(config_.watch_fallback_interval);
      heartbeat_lease_.bind(saga_.engine(), [this] { write_heartbeat(); });
      write_heartbeat();
      poll_store();  // units queued before the watch: no deliveries
      if (cb) cb();
      if (!config_.event_endpoint.empty()) {
        // Activation crosses the boundary as a one-way lifecycle event.
        net::send(transport_, config_.event_endpoint,
                  net::AgentEvent{pilot_id_, net::AgentEvent::kActive});
      }
    });
  });
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
  // Running units end with the backlog, withdrawn wherever they run, so
  // nothing they hold outlives the agent.
  for (const auto& unit : running_by_id()) {
    withdraw_unit(*unit);
    set_unit_state(*unit, backlog_final);
    if (fail_units) ++units_failed_;
  }
  launch_->teardown();
  saga_.trace().record(saga_.engine().now(), "pilot", "agent_stopped",
                       {{"pilot", pilot_id_},
                        {"failed_units", fail_units ? "true" : "false"}});
}

void Agent::write_heartbeat() {
  store_.put_heartbeat(
      pilot_id_, HeartbeatRecord{!stopped_, saga_.engine().now(),
                                 units_completed_, units_failed_, running_});
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

std::size_t Agent::poll_store() {
  if (!active_) return 0;
  const auto indices = store_.queue_pop_all("agent." + pilot_id_);
  for (const UnitIndex index : indices) {
    auto desc = store_.unit_description(index);
    if (desc == nullptr) continue;
    auto unit = std::allocate_shared<UnitRec>(
        common::PoolAllocator<UnitRec>(unit_arena_));
    unit->index = index;
    unit->id = store_.unit_id(index);
    unit->desc = std::move(desc);
    set_unit_state(*unit, UnitState::kAgentScheduling);
    queue_.push_back(std::move(unit));
  }
  schedule_queued();
  if (!indices.empty()) {
    renew_heartbeat_lease();
    notify_capacity_event();  // backlog grew
  }
  return indices.size();
}

void Agent::set_unit_state(UnitRec& unit, UnitState state) {
  if (is_final(unit.state)) return;
  unit.state = state;
  store_.set_unit_state(unit.index, state);
  saga_.trace().record(saga_.engine().now(), kUnitTrace, state_label(state),
                       {{"unit", unit.id}, {"pilot", pilot_id_}});
  if (is_final(state)) {
    saga_.trace().end_span(saga_.engine().now(), kUnitTrace, kExecSpan,
                           unit.id);
  }
  if (state == UnitState::kExecuting) {
    saga_.trace().begin_span(saga_.engine().now(), kUnitTrace, kExecSpan,
                             unit.id);
    saga_.trace().end_span(saga_.engine().now(), kUnitTrace, kStartupSpan,
                           unit.id);
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
    const bool dominated = failed_cores >= 0 && !unit->desc->is_mpi &&
                           unit->desc->cores >= failed_cores &&
                           unit->desc->memory_mb >= failed_mb;
    if (dominated) {
      still_waiting.push_back(std::move(unit));
      continue;
    }
    if (dispatch(unit)) continue;
    if (!unit->desc->is_mpi &&
        (failed_cores < 0 || (unit->desc->cores <= failed_cores &&
                              unit->desc->memory_mb <= failed_mb))) {
      failed_cores = unit->desc->cores;
      failed_mb = unit->desc->memory_mb;
    }
    still_waiting.push_back(std::move(unit));
  }
  queue_ = std::move(still_waiting);
}

bool Agent::dispatch(const std::shared_ptr<UnitRec>& unit) {
  if (!launch_->admit(*unit)) return false;  // stays queued
  running_ += 1;
  unit->running_pos = running_units_.size();
  running_units_.push_back(unit);
  launch_->launch(unit);
  return true;
}

void Agent::record_placed(const UnitRec& unit, const std::string& nodes) {
  saga_.trace().record(saga_.engine().now(), kUnitTrace, kPlaced,
                       {{"unit", unit.id}, {"node", nodes}});
  store_.record_placement(unit.id, nodes);
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
  for (const auto& f : unit->desc->input_staging) {
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
  if (unit->desc->output_staging.empty()) {
    next();
    return;
  }
  set_unit_state(*unit, UnitState::kStagingOutput);
  auto remaining =
      std::make_shared<std::size_t>(unit->desc->output_staging.size());
  for (const auto& f : unit->desc->output_staging) {
    const saga::Url src("local://" + machine_.name + "/tmp/" + unit->id);
    enqueue_transfer(src, f.url, f.size, [unit, remaining, next] {
      if (--(*remaining) == 0) next();
    });
  }
}

void Agent::release_unit(UnitRec& unit) {
  launch_->release(unit);
  unit.exec_event = sim::EventHandle{};
  // Swap-remove from the running set (a unit not in it is left alone).
  const std::size_t pos = unit.running_pos;
  if (pos < running_units_.size() && running_units_[pos].get() == &unit) {
    std::swap(running_units_[pos], running_units_.back());
    running_units_[pos]->running_pos = pos;
    running_units_.pop_back();
  }
  running_ = running_ > 0 ? running_ - 1 : 0;
}

void Agent::withdraw_unit(UnitRec& unit) {
  saga_.engine().cancel(unit.exec_event);
  launch_->withdraw(unit);
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

common::Seconds Agent::spawn_delay(common::Seconds latency) {
  // The Task Spawner handles one launch at a time; later units wait for
  // it.
  const common::Seconds now = saga_.engine().now();
  const common::Seconds starts = std::max(now, spawner_free_at_);
  spawner_free_at_ = starts + latency;
  return (starts - now) + latency;
}

void Agent::payload_done(const std::shared_ptr<UnitRec>& unit) {
  // The Task Spawner "collects the exit code" (paper SS-III-B).
  if (unit->desc->exit_code != 0) {
    finish_unit(unit, UnitState::kFailed);
    return;
  }
  stage_out(unit, [this, unit] { finish_unit(unit, UnitState::kDone); });
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
  launch_->used_capacity(cap);
  return cap;
}

std::vector<std::shared_ptr<UnitRec>> Agent::running_by_id() const {
  auto running = running_units_;
  std::sort(running.begin(), running.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  return running;
}

std::vector<SharedDescription> Agent::queued_descriptions() const {
  std::vector<SharedDescription> out;
  out.reserve(queue_.size());
  for (const auto& unit : queue_) out.push_back(unit->desc);
  return out;
}

void Agent::add_nodes(std::vector<std::shared_ptr<cluster::Node>> nodes) {
  const common::Seconds per_node = launch_->node_start_time();
  if (nodes.empty() || stopped_) return;
  if (!active_) {
    // Bootstrap has not finished; the LRM picks the nodes up when it
    // builds the backend cluster from the (now larger) allocation.
    for (auto& node : nodes) allocation_.add(std::move(node));
    return;
  }
  // Per-node worker-daemon start before the capacity becomes usable.
  const common::Seconds dt = machine_.bootstrap.configure_time +
                             per_node * static_cast<double>(nodes.size());
  saga_.engine().schedule(dt, [this, nodes = std::move(nodes)] {
    if (stopped_) return;
    for (const auto& node : nodes) {
      launch_->grow(node);
      allocation_.add(node);
    }
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
  launch_->drain(names);
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
  // Compute drained: no unit resources left on any leaving node, and the
  // backend's daemons there are idle.
  const auto& nodes = allocation_.nodes();
  const bool compute_drained =
      std::none_of(nodes.begin(), nodes.end(),
                   [this](const std::shared_ptr<cluster::Node>& node) {
                     return node_draining(node->name()) &&
                            (node->used_cores() > 0 ||
                             node->used_memory_mb() > 0);
                   }) &&
      launch_->drained(drain_names_);
  if (!compute_drained) {
    if (!drain_escalated_ && saga_.engine().now() >= drain_deadline_) {
      drain_escalate();
    }
    return;
  }
  if (launch_->data_safe(drain_names_)) drain_finish();
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
  for (const auto& unit : running_by_id()) {
    if (launch_->on_draining_node(*unit)) victims.push_back(unit);
  }
  for (const auto& unit : victims) requeue_unit(unit);
  launch_->evict(drain_names_);
  schedule_queued();
  notify_capacity_event();  // preempted units re-entered the backlog
}

void Agent::drain_finish() {
  drain_recheck_.cancel();
  launch_->remove(drain_names_);
  for (const auto& name : drain_names_) {
    allocation_.remove(name);
    draining_.erase(name);
  }
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
  const auto it = std::find_if(
      running_units_.begin(), running_units_.end(),
      [&unit_id](const auto& unit) { return unit->id == unit_id; });
  if (it == running_units_.end()) return false;
  auto unit = *it;
  // Only a unit whose payload is actually running is preemptible here:
  // one mid-staging or waiting on the serialized Task Spawner holds
  // continuations that must run out, and a Spark stage has no payload
  // event to cancel.
  if (unit->state != UnitState::kExecuting || !unit->exec_event.valid()) {
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

}  // namespace hoh::pilot

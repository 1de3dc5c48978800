#include "pilot/pilot_manager.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"
#include "net/message.h"
#include "net/transport.h"
#include "pilot/transitions.h"

namespace hoh::pilot {

void Pilot::set_state(PilotState state) {
  // Re-announcing the current state is a no-op and a transition out of a
  // final state is silently dropped (a late batch-job callback after
  // cancel()); everything else must be a legal Fig. 3 edge.
  if (state_ == state || is_final(state_)) return;
  validate_transition(state_, state, id_);
  state_ = state;
  manager_->session().trace().record(
      manager_->session().engine().now(), "pilot", "state",
      {{"pilot", id_}, {"state", to_string(state)}});
  for (const auto& cb : callbacks_) cb(state);
}

std::optional<common::Json> Pilot::heartbeat() const {
  return manager_->session().store().get("heartbeat", id_);
}

int Pilot::live_nodes() const {
  if (agent_ == nullptr) return 0;
  return static_cast<int>(agent_->allocation().nodes().size());
}

void Pilot::release_grow_segments() {
  // Grow segments die with the pilot: their batch jobs have no payload
  // of their own, so cancel whatever is still pending or running.
  for (auto& segment : grow_segments_) {
    if (segment.released) continue;
    segment.released = true;
    if (segment.job && !saga::is_final(segment.job->state())) {
      segment.job->cancel();
    }
  }
}

void Pilot::stop_agent(bool fail_units) {
  if (agent_ == nullptr) return;
  net::Transport& transport = manager_->session().transport();
  const std::string endpoint = "agent." + id_ + ".ctrl";
  if (transport.has_endpoint(endpoint)) {
    net::call<net::Ack>(
        transport, endpoint,
        net::AgentCommand{id_, fail_units ? net::AgentCommand::kStopFailUnits
                                          : net::AgentCommand::kStop});
  } else {
    agent_->stop(fail_units);
  }
}

void Pilot::cancel() {
  if (is_final(state_)) return;
  stop_agent();
  release_grow_segments();
  if (job_ && !saga::is_final(job_->state())) job_->cancel();
  set_state(PilotState::kCanceled);
}

PilotManager::~PilotManager() {
  *alive_ = false;  // defuse any pending resubmission lambdas
  // Stop agents while the session (engine, store, trace) is still alive;
  // anything the simulation still references later then finds the agent
  // already stopped.
  for (const auto& pilot : pilots_) {
    pilot->stop_agent();
    session_.transport().unregister_endpoint("pilot." + pilot->id_ +
                                             ".lifecycle");
  }
  for (auto& [id, lease] : heartbeat_leases_) {
    if (lease.watch.valid()) session_.store().unwatch(lease.watch);
  }
}

void PilotManager::observe_heartbeat_lease(const std::string& pilot_id,
                                           common::Seconds heartbeat_interval) {
  auto& lease = heartbeat_leases_[pilot_id];
  lease.interval = heartbeat_interval;
  lease.timer = std::make_unique<sim::DeadlineTimer>(
      session_.engine(), [this, pilot_id] {
        ++heartbeat_lease_expirations_;
        session_.trace().record(session_.engine().now(), "pilot",
                                "heartbeat_lease_expired",
                                {{"pilot", pilot_id}});
      });
  lease.watch = session_.store().watch(
      "heartbeat", pilot_id, [this, pilot_id](const WatchEvent&) {
        auto it = heartbeat_leases_.find(pilot_id);
        if (it == heartbeat_leases_.end()) return;
        const auto doc = session_.store().get("heartbeat", pilot_id);
        if (!doc.has_value()) return;
        if (!doc->at("alive").as_bool()) {
          // Tombstone: a deliberate stop retires the lease, it does not
          // expire it.
          it->second.timer->cancel();
          session_.store().unwatch(it->second.watch);
          it->second.watch = WatchHandle{};
          return;
        }
        it->second.timer->arm(kHeartbeatLeaseGrace * it->second.interval);
      });
}

void PilotManager::enable_recovery(common::RetryPolicy policy,
                                   RespawnHandler on_respawn,
                                   std::uint64_t seed) {
  policy.validate();
  recovery_enabled_ = true;
  recovery_policy_ = policy;
  recovery_rng_ = common::Rng(seed);
  on_respawn_ = std::move(on_respawn);
}

void PilotManager::maybe_resubmit(const std::shared_ptr<Pilot>& failed) {
  if (!recovery_enabled_) return;
  const auto it = chain_attempts_.find(failed->id_);
  const int attempt = it != chain_attempts_.end() ? it->second : 1;
  if (!recovery_policy_.allows(attempt + 1)) {
    session_.trace().record(session_.engine().now(), "recovery",
                            "pilot_abandoned",
                            {{"pilot", failed->id_},
                             {"attempts", std::to_string(attempt)}});
    return;
  }
  const common::Seconds backoff =
      recovery_policy_.backoff_for(attempt, recovery_rng_);
  session_.trace().record(session_.engine().now(), "recovery",
                          "pilot_resubmit_scheduled",
                          {{"pilot", failed->id_},
                           {"attempt", std::to_string(attempt + 1)},
                           {"backoff", std::to_string(backoff)}});
  std::weak_ptr<bool> alive = alive_;
  session_.engine().schedule(backoff, [this, alive, failed, attempt] {
    const auto guard = alive.lock();
    if (guard == nullptr || !*guard) return;
    auto replacement =
        submit_pilot(failed->description_, failed->agent_config_);
    chain_attempts_[replacement->id_] = attempt + 1;
    ++pilots_resubmitted_;
    session_.trace().record(session_.engine().now(), "recovery",
                            "pilot_resubmitted",
                            {{"failed", failed->id_},
                             {"replacement", replacement->id_},
                             {"attempt", std::to_string(attempt + 1)}});
    if (on_respawn_) on_respawn_(replacement, failed);
  });
}

std::shared_ptr<Pilot> PilotManager::submit_pilot(
    const PilotDescription& description, AgentConfig agent_config) {
  if (description.resource.empty()) {
    throw common::ConfigError("PilotDescription.resource must be set");
  }
  const saga::Url url(description.resource);
  auto& resource = session_.saga().resource(url.host());

  // Mode II needs the dedicated cluster to exist on that host.
  yarn::YarnCluster* external = nullptr;
  if (description.backend == AgentBackend::kYarnModeII) {
    external = session_.dedicated_hadoop(url.host());
    if (external == nullptr) {
      throw common::ConfigError(
          "Mode II requested but no dedicated Hadoop environment exists on " +
          url.host());
    }
  }

  const std::string pilot_id = session_.next_pilot_id();
  auto pilot = std::shared_ptr<Pilot>(
      new Pilot(this, pilot_id, description));

  // Message boundary (DESIGN.md §14): the agent joins the session
  // transport — control commands in, lifecycle events out — and any
  // Mode-I cluster it bootstraps wires its RM onto the same transport.
  agent_config.transport = &session_.transport();
  agent_config.event_endpoint = "pilot." + pilot_id + ".lifecycle";
  agent_config.yarn.yarn.transport = &session_.transport();
  pilot->agent_config_ = agent_config;

  observe_heartbeat_lease(pilot_id, agent_config.heartbeat_interval);

  saga::JobService& service = job_service(url);
  saga::JobDescription jd;
  jd.name = pilot_id;
  jd.executable = "radical-pilot-agent";
  jd.total_nodes = description.nodes;
  jd.wall_time_limit = description.runtime;
  jd.queue = description.queue;
  jd.project = description.project;

  // Callbacks capture the pilot weakly: the batch-scheduler keeps its
  // callbacks alive for the whole session, and a strong capture would
  // extend agent lifetime past the state store's (teardown ordering).
  std::weak_ptr<Pilot> weak = pilot;
  // Lifecycle endpoint: the agent's activation event lands here.
  session_.transport().register_endpoint(
      "pilot." + pilot_id + ".lifecycle", [weak](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::AgentEvent>(env);
        if (msg.kind == net::AgentEvent::kActive) {
          if (auto p = weak.lock()) p->set_state(PilotState::kActive);
        }
        return net::make_envelope(net::Ack{});
      });
  const cluster::MachineProfile& profile = resource.profile;
  pilot->job_ = service.submit(
      jd,
      [this, weak, &profile, external](const cluster::Allocation& allocation) {
        auto pilot = weak.lock();
        if (pilot == nullptr) return;
        // P.2: placeholder job started; bring the agent up.
        pilot->set_state(PilotState::kLaunching);
        pilot->agent_ = std::make_unique<Agent>(
            session_.saga(), session_.store(), session_.transfer(),
            pilot->id_, profile, allocation, pilot->description_.backend,
            pilot->agent_config_, external);
        // P.2 over the boundary: the start command crosses as a message;
        // activation comes back as an AgentEvent on the lifecycle
        // endpoint registered above.
        net::call<net::Ack>(
            session_.transport(), "agent." + pilot->id_ + ".ctrl",
            net::AgentCommand{pilot->id_, net::AgentCommand::kStart});
      });

  pilot->job_->on_state_change([weak](saga::JobState state) {
    auto pilot = weak.lock();
    if (pilot == nullptr) return;
    switch (state) {
      case saga::JobState::kDone:
        pilot->stop_agent();
        pilot->release_grow_segments();
        pilot->set_state(PilotState::kDone);
        break;
      case saga::JobState::kFailed:
        // Involuntary death: units (queued and running) become kFailed so
        // the Unit-Manager may requeue them, unlike the kDone/kCanceled
        // paths where the backlog is deliberately canceled.
        pilot->stop_agent(/*fail_units=*/true);
        pilot->release_grow_segments();
        pilot->set_state(PilotState::kFailed);
        pilot->manager_->maybe_resubmit(pilot);
        break;
      case saga::JobState::kCanceled:
        pilot->stop_agent();
        pilot->release_grow_segments();
        pilot->set_state(PilotState::kCanceled);
        break;
      default:
        break;
    }
  });

  pilot->set_state(PilotState::kPendingLaunch);
  pilots_.push_back(pilot);
  return pilot;
}

void PilotManager::grow_pilot(const std::shared_ptr<Pilot>& pilot, int nodes,
                              std::function<void(int)> on_added) {
  if (nodes <= 0) {
    throw common::ConfigError("grow_pilot: nodes must be positive");
  }
  if (pilot == nullptr || is_final(pilot->state())) {
    throw common::StateError("grow_pilot: pilot is not running");
  }
  if (pilot->description_.backend == AgentBackend::kYarnModeII) {
    throw common::StateError(
        "grow_pilot: Mode II pilots cannot grow — the external cluster is "
        "not ours to resize");
  }
  const saga::Url url(pilot->description_.resource);
  saga::JobService& service = job_service(url);

  saga::JobDescription jd;
  jd.name = pilot->id_ + "-grow-" + std::to_string(pilot->next_grow_++);
  jd.executable = "radical-pilot-agent-grow";
  jd.total_nodes = nodes;
  jd.wall_time_limit = pilot->description_.runtime;
  jd.queue = pilot->description_.queue;
  jd.project = pilot->description_.project;

  pilot->pending_grow_nodes_ += nodes;
  session_.trace().record(session_.engine().now(), "pilot", "grow_requested",
                          {{"pilot", pilot->id_},
                           {"job", jd.name},
                           {"nodes", std::to_string(nodes)}});

  // The start callback needs the job handle (to hand nodes straight back
  // if the pilot died in the queue), but submit() only returns it after
  // registering the callback — route it through a shared holder.
  auto holder = std::make_shared<std::shared_ptr<saga::Job>>();
  auto landed = std::make_shared<bool>(false);
  std::weak_ptr<Pilot> weak = pilot;
  auto job = service.submit(
      jd, [this, weak, holder, landed, nodes,
           on_added](const cluster::Allocation& allocation) {
        *landed = true;
        auto pilot = weak.lock();
        if (pilot == nullptr || is_final(pilot->state()) ||
            pilot->agent_ == nullptr) {
          // Nobody left to take the nodes: return the allocation now.
          if (*holder != nullptr) (*holder)->complete();
          if (on_added) on_added(0);
          return;
        }
        pilot->pending_grow_nodes_ -= nodes;
        Pilot::GrowSegment segment;
        segment.job = *holder;
        segment.node_names = allocation.node_names();
        pilot->grow_segments_.push_back(std::move(segment));
        pilot->agent_->add_nodes(allocation.nodes());
        session_.trace().record(
            session_.engine().now(), "pilot", "grow_started",
            {{"pilot", pilot->id_},
             {"nodes", std::to_string(nodes)},
             {"total", std::to_string(pilot->live_nodes())}});
        if (on_added) on_added(nodes);
      });
  *holder = job;

  job->on_state_change([weak, landed, nodes](saga::JobState state) {
    // A grow job that dies in the queue must not keep inflating the
    // pending-grow ledger the elastic controller budgets against.
    if (!saga::is_final(state) || *landed) return;
    *landed = true;
    if (auto pilot = weak.lock()) {
      pilot->pending_grow_nodes_ =
          std::max(0, pilot->pending_grow_nodes_ - nodes);
    }
  });
}

void PilotManager::shrink_pilot(const std::shared_ptr<Pilot>& pilot,
                                int nodes, common::Seconds drain_timeout,
                                std::function<void(bool)> on_done) {
  if (nodes <= 0) {
    throw common::ConfigError("shrink_pilot: nodes must be positive");
  }
  if (pilot == nullptr || pilot->agent_ == nullptr) {
    throw common::StateError("shrink_pilot: pilot has no running agent");
  }
  // Whole segments, most recent first — a batch job cannot give back part
  // of its allocation, and the base placeholder job never shrinks.
  std::vector<std::size_t> chosen;
  int covered = 0;
  for (std::size_t i = pilot->grow_segments_.size(); i-- > 0;) {
    if (pilot->grow_segments_[i].released) continue;
    chosen.push_back(i);
    covered += static_cast<int>(pilot->grow_segments_[i].node_names.size());
    if (covered >= nodes) break;
  }
  if (chosen.empty()) {
    throw common::StateError(
        "shrink_pilot: no grow segments to release — the base allocation "
        "never shrinks");
  }
  std::vector<std::string> names;
  for (const auto i : chosen) {
    const auto& segment = pilot->grow_segments_[i];
    names.insert(names.end(), segment.node_names.begin(),
                 segment.node_names.end());
  }
  session_.trace().record(session_.engine().now(), "pilot", "shrink_requested",
                          {{"pilot", pilot->id_},
                           {"nodes", std::to_string(names.size())},
                           {"segments", std::to_string(chosen.size())}});
  std::weak_ptr<Pilot> weak = pilot;
  pilot->agent_->decommission_nodes(
      names, drain_timeout, [this, weak, chosen, on_done](bool clean) {
        auto pilot = weak.lock();
        if (pilot == nullptr) return;
        for (const auto i : chosen) {
          auto& segment = pilot->grow_segments_[i];
          segment.released = true;
          if (segment.job && !saga::is_final(segment.job->state())) {
            segment.job->complete();
          }
        }
        session_.trace().record(
            session_.engine().now(), "pilot", "shrink_done",
            {{"pilot", pilot->id_},
             {"clean", clean ? "true" : "false"},
             {"total", std::to_string(pilot->live_nodes())}});
        if (on_done) on_done(clean);
      });
}

saga::JobService& PilotManager::job_service(const saga::Url& url) {
  auto it = services_.find(url.host());
  if (it == services_.end()) {
    it = services_
             .emplace(url.host(), std::make_unique<saga::JobService>(
                                      session_.saga(), url))
             .first;
  }
  return *it->second;
}

}  // namespace hoh::pilot

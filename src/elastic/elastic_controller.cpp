#include "elastic/elastic_controller.h"

#include <algorithm>

#include "common/error.h"
#include "pilot/session.h"

namespace hoh::elastic {

common::Json ElasticCounters::to_json() const {
  common::JsonObject obj;
  obj["samples"] = static_cast<std::uint64_t>(samples);
  obj["growDecisions"] = static_cast<std::uint64_t>(grow_decisions);
  obj["shrinkDecisions"] = static_cast<std::uint64_t>(shrink_decisions);
  obj["holdDecisions"] = static_cast<std::uint64_t>(hold_decisions);
  obj["deferredDecisions"] = static_cast<std::uint64_t>(deferred_decisions);
  obj["clampedDecisions"] = static_cast<std::uint64_t>(clamped_decisions);
  obj["nodesRequested"] = nodes_requested;
  obj["nodesAdded"] = nodes_added;
  obj["nodesRemoved"] = nodes_removed;
  obj["cleanShrinks"] = static_cast<std::uint64_t>(clean_shrinks);
  obj["forcedShrinks"] = static_cast<std::uint64_t>(forced_shrinks);
  obj["failureGrows"] = static_cast<std::uint64_t>(failure_grows);
  obj["eventTicks"] = static_cast<std::uint64_t>(event_ticks);
  return common::Json(std::move(obj));
}

ElasticController::ElasticController(
    pilot::PilotManager& manager, std::shared_ptr<pilot::Pilot> pilot,
    std::unique_ptr<ElasticPolicy> policy, ElasticControllerConfig config,
    std::shared_ptr<pilot::RuntimeEstimator> estimator)
    : manager_(manager),
      pilot_(std::move(pilot)),
      policy_(std::move(policy)),
      config_(config),
      estimator_(std::move(estimator)),
      alive_(std::make_shared<bool>(true)) {
  if (pilot_ == nullptr) {
    throw common::ConfigError("ElasticController: null pilot");
  }
  if (policy_ == nullptr) {
    throw common::ConfigError("ElasticController: null policy");
  }
  if (config_.sample_interval <= 0.0) {
    throw common::ConfigError(
        "ElasticController: sample_interval must be positive");
  }
}

ElasticController::~ElasticController() {
  *alive_ = false;
  stop();
}

void ElasticController::start() {
  if (running_) return;
  running_ = true;
  if (pilot::Agent* agent = pilot_->agent();
      agent != nullptr && agent->active()) {
    maybe_subscribe(*agent);
  }
  // Sampling cadence is kept alongside the capacity-event ticks: resize
  // decisions want a stable rhythm, and the periodic also covers
  // quiescence (budgeted for conc-periodic-budget in hoh_analyze.py).
  tick_event_ = manager_.session().engine().schedule_periodic(
      config_.sample_interval, [this] { tick(); });
}

void ElasticController::stop() {
  if (!running_) return;
  running_ = false;
  manager_.session().engine().cancel(tick_event_);
  tick_event_ = sim::EventHandle{};
}

void ElasticController::tick() {
  if (pilot::is_final(pilot_->state())) {
    stop();
    return;
  }
  pilot::Agent* agent = pilot_->agent();
  if (agent == nullptr || !agent->active()) return;  // still bootstrapping
  maybe_subscribe(*agent);

  const PilotSample sample = collect_sample(*agent);
  {
    common::MutexLock lock(mu_);
    counters_.samples += 1;
    last_sample_ = sample;
  }

  // One resize at a time: a grow job in the batch queue or a running
  // drain means the world is about to change — deciding on a stale
  // sample would double-provision or fight the drain.
  if (agent->draining() || pilot_->pending_grow_nodes() > 0) {
    common::MutexLock lock(mu_);
    counters_.deferred_decisions += 1;
    return;
  }

  // Failure-induced capacity loss trumps the policy: when node crashes
  // dragged the live set below the floor, grow back to it immediately —
  // a utilization-based policy would read a half-dead pilot as "idle".
  ElasticDecision decision;
  if (sample.nodes < config_.min_nodes) {
    decision.action = ElasticAction::kGrow;
    decision.nodes = config_.min_nodes - sample.nodes;
    decision.reason = "failure-induced-capacity-loss";
    common::MutexLock lock(mu_);
    counters_.failure_grows += 1;
  } else {
    decision = policy_->decide(sample);
  }
  sim::Trace& trace = manager_.session().trace();
  trace.record(manager_.session().engine().now(), "elastic", "decision",
               {{"pilot", pilot_->id()},
                {"policy", policy_->name()},
                {"action", to_string(decision.action)},
                {"nodes", std::to_string(decision.nodes)},
                {"reason", decision.reason},
                {"queued", std::to_string(sample.queued_units)},
                {"utilization", std::to_string(sample.utilization())}});
  actuate(sample, std::move(decision));
}

void ElasticController::maybe_subscribe(pilot::Agent& agent) {
  if (subscribed_) return;
  subscribed_ = true;
  std::weak_ptr<bool> alive = alive_;
  agent.on_capacity_event([this, alive] {
    if (auto a = alive.lock(); a == nullptr || !*a) return;
    request_event_tick();
  });
}

void ElasticController::request_event_tick() {
  if (!running_ || event_tick_pending_) return;
  event_tick_pending_ = true;
  std::weak_ptr<bool> alive = alive_;
  manager_.session().engine().schedule(0.0, [this, alive] {
    if (auto a = alive.lock(); a == nullptr || !*a) return;
    event_tick_pending_ = false;
    if (!running_) return;
    {
      common::MutexLock lock(mu_);
      counters_.event_ticks += 1;
    }
    tick();
  });
}

PilotSample ElasticController::collect_sample(pilot::Agent& agent) const {
  PilotSample sample;
  sample.time = manager_.session().engine().now();
  const pilot::AgentCapacity capacity = agent.capacity();
  sample.nodes = capacity.nodes;
  sample.draining_nodes = capacity.draining_nodes;
  sample.pending_grow_nodes = pilot_->pending_grow_nodes();
  sample.total_cores = capacity.total_cores;
  sample.used_cores = capacity.used_cores;
  sample.running_units = agent.units_running();
  const auto& nodes = agent.allocation().nodes();
  sample.cores_per_node =
      nodes.empty() ? 1 : std::max(1, nodes.front()->spec().cores);

  for (const auto& desc : agent.queued_descriptions()) {
    sample.queued_units += 1;
    sample.queued_cores += std::max(1, desc.cores);
    const double predicted = estimator_ != nullptr
                                 ? estimator_->predict(desc)
                                 : desc.duration;
    sample.predicted_backlog_seconds += predicted * std::max(1, desc.cores);
  }
  return sample;
}

void ElasticController::actuate(const PilotSample& sample,
                                ElasticDecision decision) {
  const int live = pilot_->live_nodes();
  switch (decision.action) {
    case ElasticAction::kHold: {
      common::MutexLock lock(mu_);
      counters_.hold_decisions += 1;
      return;
    }
    case ElasticAction::kGrow: {
      int step = decision.nodes;
      if (config_.max_nodes > 0) {
        step = std::min(step, config_.max_nodes - live);
      }
      if (step <= 0) {
        common::MutexLock lock(mu_);
        counters_.clamped_decisions += 1;
        return;
      }
      {
        common::MutexLock lock(mu_);
        counters_.grow_decisions += 1;
        counters_.nodes_requested += step;
      }
      // mu_ is released before grow_pilot: the callback may fire inline
      // and takes mu_ itself — holding it here would self-deadlock.
      std::weak_ptr<bool> alive = alive_;
      manager_.grow_pilot(pilot_, step, [this, alive](int added) {
        if (auto a = alive.lock(); a == nullptr || !*a) return;
        common::MutexLock lock(mu_);
        counters_.nodes_added += added;
      });
      return;
    }
    case ElasticAction::kShrink: {
      // Only whole grow segments can leave, and never below the floor.
      int removable = 0;
      for (const auto& segment : pilot_->grow_segments()) {
        if (!segment.released) {
          removable += static_cast<int>(segment.node_names.size());
        }
      }
      int step = std::min({decision.nodes, removable,
                           live - std::max(1, config_.min_nodes)});
      if (step <= 0) {
        common::MutexLock lock(mu_);
        counters_.clamped_decisions += 1;
        return;
      }
      {
        common::MutexLock lock(mu_);
        counters_.shrink_decisions += 1;
      }
      std::weak_ptr<bool> alive = alive_;
      manager_.shrink_pilot(
          pilot_, step, config_.drain_timeout,
          [this, alive, before = live](bool clean) {
            if (auto a = alive.lock(); a == nullptr || !*a) return;
            const int removed = before - pilot_->live_nodes();
            common::MutexLock lock(mu_);
            counters_.nodes_removed += removed;
            if (clean) {
              counters_.clean_shrinks += 1;
            } else {
              counters_.forced_shrinks += 1;
            }
          });
      return;
    }
  }
  (void)sample;
}

ElasticCounters ElasticController::counters() const {
  common::MutexLock lock(mu_);
  return counters_;
}

PilotSample ElasticController::last_sample() const {
  common::MutexLock lock(mu_);
  return last_sample_;
}

}  // namespace hoh::elastic

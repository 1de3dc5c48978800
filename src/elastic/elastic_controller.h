#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/thread_annotations.h"
#include "elastic/policy.h"
#include "pilot/estimator.h"
#include "pilot/pilot_manager.h"
#include "sim/engine.h"

/// \file elastic_controller.h
/// The elastic control loop: every sample interval the controller
/// snapshots one pilot's live state (capacity, backlog, drain status),
/// asks its policy for a decision, clamps it to the configured node
/// bounds, and actuates through PilotManager::grow_pilot /
/// shrink_pilot — so every grow pays real batch queue wait and every
/// shrink drains gracefully through the agent. While a resize is in
/// flight (grow job queued or drain running) new decisions are
/// deferred, which keeps the loop stable without policy cooperation.

namespace hoh::elastic {

struct ElasticControllerConfig {
  /// Sampling cadence (DESIGN.md §10). Resize decisions want a stable
  /// rhythm, so the controller samples on this period; it also
  /// subscribes to the agent's capacity-change events (units arriving or
  /// finishing, nodes landing or leaving) and runs an extra deduplicated
  /// tick one event-turn later, so backlog spikes are acted on without
  /// waiting out the interval.
  common::Seconds sample_interval = 30.0;
  /// Node floor. The base allocation can never shrink anyway; a higher
  /// floor keeps grown capacity around.
  int min_nodes = 1;
  /// Node ceiling; 0 = unlimited.
  int max_nodes = 0;
  /// Graceful-drain budget per shrink before executing units on leaving
  /// nodes are preempted and requeued.
  common::Seconds drain_timeout = 300.0;
};

/// Counters for the ablation study and the hohsim report.
struct ElasticCounters {
  std::size_t samples = 0;
  std::size_t grow_decisions = 0;
  std::size_t shrink_decisions = 0;
  std::size_t hold_decisions = 0;
  std::size_t deferred_decisions = 0;  // resize already in flight
  std::size_t clamped_decisions = 0;   // bounds reduced a resize to zero
  int nodes_requested = 0;  // grow nodes submitted to the batch system
  int nodes_added = 0;      // grow nodes that actually joined
  int nodes_removed = 0;    // nodes drained and released
  std::size_t clean_shrinks = 0;
  std::size_t forced_shrinks = 0;  // drain timed out, units preempted
  /// Grow decisions forced by failure-induced capacity loss (live nodes
  /// fell below the configured floor), bypassing the policy.
  std::size_t failure_grows = 0;
  /// Watch plane: ticks triggered by agent capacity events (on top of the
  /// periodic samples).
  std::size_t event_ticks = 0;

  common::Json to_json() const;
};

class ElasticController {
 public:
  /// \p estimator (optional) prices the queued backlog for
  /// PilotSample::predicted_backlog_seconds; without one, each unit's
  /// declared duration is used.
  ElasticController(pilot::PilotManager& manager,
                    std::shared_ptr<pilot::Pilot> pilot,
                    std::unique_ptr<ElasticPolicy> policy,
                    ElasticControllerConfig config = {},
                    std::shared_ptr<pilot::RuntimeEstimator> estimator =
                        nullptr);
  ~ElasticController();

  ElasticController(const ElasticController&) = delete;
  ElasticController& operator=(const ElasticController&) = delete;

  /// Starts the periodic sample/decide/actuate loop.
  void start();

  /// Stops the loop; in-flight resizes complete but trigger no new ones.
  void stop();

  /// Runs one sample/decide/actuate step immediately (tests drive this
  /// directly; the periodic loop calls it too).
  void tick();

  /// Snapshot of the counters (by value: the resize-completion callbacks
  /// mutate them, so handing out a reference would publish a data race to
  /// any observer polling from another thread).
  ElasticCounters counters() const HOH_EXCLUDES(mu_);
  const std::string& policy_name() const { return policy_->name(); }

  /// Snapshot of the sample the last tick decided on (all zeros before
  /// the first).
  PilotSample last_sample() const HOH_EXCLUDES(mu_);

 private:
  PilotSample collect_sample(pilot::Agent& agent) const;
  void actuate(const PilotSample& sample, ElasticDecision decision)
      HOH_EXCLUDES(mu_);

  /// Watch plane: one-time subscription to the agent's capacity events
  /// (lazy — the agent may not exist until the placeholder job starts).
  void maybe_subscribe(pilot::Agent& agent);
  /// Watch plane: schedule a deduplicated tick one event-turn from now.
  void request_event_tick();

  pilot::PilotManager& manager_;
  std::shared_ptr<pilot::Pilot> pilot_;
  std::unique_ptr<ElasticPolicy> policy_;
  ElasticControllerConfig config_;
  std::shared_ptr<pilot::RuntimeEstimator> estimator_;
  /// Guards the mutable observables below. Lock-ordering rule: never
  /// held across manager_ / policy_ / pilot_ calls — those may re-enter
  /// the controller through resize callbacks.
  mutable common::Mutex mu_;
  ElasticCounters counters_ HOH_GUARDED_BY(mu_);
  PilotSample last_sample_ HOH_GUARDED_BY(mu_);
  sim::EventHandle tick_event_;
  bool running_ = false;
  bool subscribed_ = false;          // capacity-event hook installed
  bool event_tick_pending_ = false;  // dedup for event-triggered ticks
  /// Outlives the controller in resize callbacks, so a late drain or
  /// grow completion on a destroyed controller is a no-op.
  std::shared_ptr<bool> alive_;
};

}  // namespace hoh::elastic

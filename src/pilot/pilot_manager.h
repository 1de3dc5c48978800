#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/retry.h"
#include "pilot/agent/agent.h"
#include "pilot/descriptions.h"
#include "pilot/session.h"
#include "pilot/states.h"
#include "saga/job.h"

/// \file pilot_manager.h
/// The Pilot-Manager: "the central entity responsible for managing the
/// lifecycle of a set of Pilots" (paper SS-III-B). It submits the
/// placeholder job that runs the agent via the SAGA job API (steps
/// P.1-P.7) and tracks pilot states.

namespace hoh::pilot {

class PilotManager;

/// Handle to one pilot. The agent (once running) is reachable for
/// diagnostics; applications normally interact through the UnitManager.
class Pilot {
 public:
  /// One elastic grow increment: the incremental batch job plus the node
  /// names it contributed. Batch jobs release whole allocations only, so
  /// shrink returns whole segments, most recent first.
  struct GrowSegment {
    std::shared_ptr<saga::Job> job;
    std::vector<std::string> node_names;
    bool released = false;
  };

  const std::string& id() const { return id_; }
  const PilotDescription& description() const { return description_; }
  PilotState state() const { return state_; }

  /// Agent instance, nullptr until the placeholder job started.
  Agent* agent() { return agent_.get(); }

  /// Nodes currently in the agent allocation (base + landed grow
  /// segments); 0 before the placeholder job started.
  int live_nodes() const;

  /// Nodes requested by grow jobs still waiting in the batch queue.
  int pending_grow_nodes() const { return pending_grow_nodes_; }

  const std::vector<GrowSegment>& grow_segments() const {
    return grow_segments_;
  }

  /// Latest heartbeat the agent wrote to the shared store, or nullopt
  /// before the first. Clients use this to detect dead agents.
  std::optional<HeartbeatRecord> heartbeat() const;

  void cancel();

  /// Registers a state-change callback.
  void on_state_change(std::function<void(PilotState)> callback) {
    callbacks_.push_back(std::move(callback));
  }

 private:
  friend class PilotManager;
  Pilot(PilotManager* manager, std::string id, PilotDescription description)
      : manager_(manager),
        id_(std::move(id)),
        description_(std::move(description)) {}

  void set_state(PilotState state);
  void release_grow_segments();

  /// Routes a stop to the agent over the session transport as an
  /// AgentCommand.
  void stop_agent(bool fail_units = false);

  PilotManager* manager_;
  std::string id_;
  PilotDescription description_;
  PilotState state_ = PilotState::kNew;
  AgentConfig agent_config_;  // kept so a resubmission reuses it verbatim
  std::shared_ptr<saga::Job> job_;
  std::unique_ptr<Agent> agent_;
  std::vector<std::function<void(PilotState)>> callbacks_;
  std::vector<GrowSegment> grow_segments_;
  int pending_grow_nodes_ = 0;
  int next_grow_ = 1;
};

class PilotManager {
 public:
  explicit PilotManager(Session& session) : session_(session) {}

  /// Stops all agents (the session must still be alive — construct the
  /// PilotManager after the Session so destruction order is correct).
  ~PilotManager();

  PilotManager(const PilotManager&) = delete;
  PilotManager& operator=(const PilotManager&) = delete;

  /// P.1: submits the placeholder job for \p description. The returned
  /// pilot transitions New -> PendingLaunch -> Launching -> Active as the
  /// batch job runs and the agent bootstraps.
  std::shared_ptr<Pilot> submit_pilot(const PilotDescription& description,
                                      AgentConfig agent_config = {});

  /// Elastic grow: submits an incremental placeholder job for \p nodes
  /// additional nodes through the same job service, so the request pays
  /// real queue wait under the active batch policy. When the job starts,
  /// the agent bootstraps the new nodes (Mode-I NM/DataNode/worker
  /// registration) and \p on_added fires with the count actually added —
  /// 0 if the pilot was gone by then and the nodes went straight back.
  void grow_pilot(const std::shared_ptr<Pilot>& pilot, int nodes,
                  std::function<void(int added)> on_added = nullptr);

  /// Elastic shrink: picks unreleased grow segments most-recent-first
  /// until at least \p nodes are covered, gracefully drains them through
  /// the agent (see Agent::decommission_nodes) and completes each
  /// segment's batch job once its nodes left the allocation. The base
  /// allocation never shrinks. \p on_done fires with clean=false when the
  /// drain timed out and preempted (units requeued, never lost). Throws
  /// StateError when no segment is available or a drain is in progress.
  void shrink_pilot(const std::shared_ptr<Pilot>& pilot, int nodes,
                    common::Seconds drain_timeout,
                    std::function<void(bool clean)> on_done = nullptr);

  /// Fired when a failed pilot's replacement has been submitted, so the
  /// application can rebind (e.g. UnitManager::add_pilot the replacement).
  using RespawnHandler = std::function<void(
      const std::shared_ptr<Pilot>& replacement,
      const std::shared_ptr<Pilot>& failed)>;

  /// Enables pilot resubmission: when a pilot's placeholder job fails
  /// (node crash, walltime kill), a fresh pilot with the same description
  /// and agent config is submitted after the policy backoff. A failure
  /// *chain* (original + its replacements) is limited to
  /// policy.max_attempts submissions total; past that the chain is
  /// abandoned with a trace record.
  void enable_recovery(common::RetryPolicy policy,
                       RespawnHandler on_respawn = nullptr,
                       std::uint64_t seed = 42);

  /// Replacement pilots submitted by the recovery machinery.
  std::size_t pilots_resubmitted() const { return pilots_resubmitted_; }

  /// Watch-plane liveness observation: times a pilot's heartbeat lease
  /// expired (no heartbeat for kHeartbeatLeaseGrace intervals without a
  /// tombstone). Observational — actual death handling stays with the
  /// placeholder-job callbacks.
  std::size_t heartbeat_lease_expirations() const {
    return heartbeat_lease_expirations_;
  }

  Session& session() { return session_; }

  std::vector<std::shared_ptr<Pilot>> pilots() const { return pilots_; }

 private:
  friend class Pilot;

  /// One SAGA JobService per target host, created on demand.
  saga::JobService& job_service(const saga::Url& url);

  /// Called by the failed pilot's job callback; schedules the replacement
  /// submission (or abandons the chain) per the recovery policy.
  void maybe_resubmit(const std::shared_ptr<Pilot>& failed);

  /// Subscribes to the pilot's heartbeat writes and keeps a lease timer
  /// pushed out by each one. A tombstone (alive=false)
  /// retires the lease; silence past the grace window records a
  /// heartbeat_lease_expired trace event.
  void observe_heartbeat_lease(const std::string& pilot_id,
                               common::Seconds heartbeat_interval);

  /// Grace window for the heartbeat lease, in heartbeat intervals.
  static constexpr double kHeartbeatLeaseGrace = 3.0;

  struct HeartbeatLease {
    WatchHandle watch;
    std::unique_ptr<sim::DeadlineTimer> timer;
    common::Seconds interval = 10.0;
  };

  Session& session_;
  std::map<std::string, std::unique_ptr<saga::JobService>> services_;
  std::vector<std::shared_ptr<Pilot>> pilots_;

  // Fault recovery: opt-in resubmission of failed pilots.
  bool recovery_enabled_ = false;
  common::RetryPolicy recovery_policy_;
  common::Rng recovery_rng_{42};
  RespawnHandler on_respawn_;
  std::map<std::string, int> chain_attempts_;  // pilot -> submissions so far
  std::size_t pilots_resubmitted_ = 0;
  std::map<std::string, HeartbeatLease> heartbeat_leases_;  // pilot ->
  std::size_t heartbeat_lease_expirations_ = 0;
  /// Liveness guard for engine-scheduled resubmission lambdas: they may
  /// fire after this manager is destroyed (the engine outlives us).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hoh::pilot

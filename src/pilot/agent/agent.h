#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/machine.h"
#include "common/object_pool.h"
#include "net/transport.h"
#include "pilot/agent/agent_config.h"
#include "pilot/agent/launch_method.h"
#include "pilot/descriptions.h"
#include "pilot/state_store.h"
#include "pilot/states.h"
#include "saga/context.h"
#include "saga/file_transfer.h"

/// \file agent.h
/// The RADICAL-Pilot agent (paper Fig. 3, right side). One agent runs on
/// the head node of a batch allocation and consists of the components the
/// paper names: the Local Resource Manager, the Scheduler, the Task
/// Spawner, a heartbeat monitor and the stage-in/stage-out workers, plus
/// one Launch Method per backend (launch_method.h: fork/mpiexec, YARN
/// Mode I/II, Spark), which owns the backend cluster, the admission
/// check and the placement. The agent never branches on its backend.

namespace hoh::pilot {

/// Live capacity snapshot of one agent's node set — the single query
/// elastic controllers and schedulers use instead of startup-cached
/// totals, so accounting stays consistent as nodes join and leave.
struct AgentCapacity {
  int nodes = 0;            // usable (non-draining) nodes
  int draining_nodes = 0;   // marked decommissioning, still held
  int total_cores = 0;
  int used_cores = 0;
  common::MemoryMb total_memory_mb = 0;
  common::MemoryMb used_memory_mb = 0;

  int idle_cores() const { return total_cores - used_cores; }
};

/// The endpoint a pilot's agent sends its lifecycle AgentEvents to over
/// the session transport (DESIGN.md §14): "pilot.<pilot_id>.lifecycle",
/// which the PilotManager registers.
inline std::string lifecycle_endpoint(const std::string& pilot_id) {
  return "pilot." + pilot_id + ".lifecycle";
}

class Agent {
 public:
  /// The agent registers its control endpoint "agent.<pilot_id>.ctrl"
  /// (start/stop commands) on \p transport and reports lifecycle events
  /// (activation) to lifecycle_endpoint(pilot_id) over it (DESIGN.md §14);
  /// the transport must outlive the agent. \p external_yarn must be
  /// non-null for AgentBackend::kYarnModeII (the pre-existing cluster,
  /// e.g. Wrangler's dedicated Hadoop reservation).
  Agent(saga::SagaContext& saga, StateStore& store, net::Transport& transport,
        saga::FileTransferService& transfer, std::string pilot_id,
        const cluster::MachineProfile& machine,
        cluster::Allocation allocation, AgentBackend backend,
        AgentConfig config, yarn::YarnCluster* external_yarn = nullptr);
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// P.2: begins agent bootstrap (LRM environment discovery, Mode-I
  /// cluster bootstrap). When finished the agent is active and watching
  /// its store queue. \p on_active fires at that moment.
  void start(std::function<void()> on_active = nullptr);

  /// Stops the agent: withdraws every running unit, tears down Mode-I
  /// clusters (the LRM "stops the Hadoop and YARN daemons and removes the
  /// associated data files"), drops its store watch and timers.
  ///
  /// Queued and running units end kCanceled on a deliberate stop (cancel
  /// or normal end; a sink) and kFailed when \p fail_units (the
  /// placeholder job died under the agent; kFailed is the one final
  /// state the Unit-Manager may requeue from).
  void stop(bool fail_units = false);

  bool active() const { return active_; }
  const std::string& pilot_id() const { return pilot_id_; }
  AgentBackend backend() const { return backend_; }
  const cluster::Allocation& allocation() const { return allocation_; }
  const AgentConfig& config() const { return config_; }

  /// Mode-I/II backend clusters (nullptr when not applicable).
  yarn::YarnCluster* yarn_cluster() { return launch_->yarn_cluster(); }
  spark::SparkStandaloneCluster* spark_cluster() {
    return launch_->spark_cluster();
  }

  std::size_t units_completed() const { return units_completed_; }
  std::size_t units_failed() const { return units_failed_; }
  std::size_t units_queued() const { return queue_.size(); }
  std::size_t units_running() const { return running_; }

  // --- Elasticity (runtime resize of the node set) ---

  /// Live totals over the current allocation, excluding draining nodes.
  /// For YARN backends usage comes from the RM ledger (memory-only
  /// scheduling leaves node core ledgers untouched).
  AgentCapacity capacity();

  /// Mode-I incremental bootstrap of freshly granted nodes: after the
  /// per-node daemon start latency they register with the backend
  /// cluster (NM + DataNode for YARN, worker for Spark) and join the
  /// agent scheduler's allocation. Throws StateError for Mode II (the
  /// external cluster is not ours to grow).
  void add_nodes(std::vector<std::shared_ptr<cluster::Node>> nodes);

  /// Graceful drain-then-release. The named nodes are marked
  /// decommissioning (no new placements anywhere in the stack), running
  /// work is allowed to finish, HDFS re-replicates blocks off leaving
  /// DataNodes, then the nodes leave the allocation and \p on_released
  /// fires (clean=true). Past \p drain_timeout, executing units on the
  /// leaving nodes are preempted and requeued (clean=false) — the HDFS
  /// replication barrier is never skipped. The head node cannot leave.
  void decommission_nodes(std::vector<std::string> names,
                          common::Seconds drain_timeout,
                          std::function<void(bool clean)> on_released);

  bool draining() const { return !drain_names_.empty(); }
  std::size_t drain_timeouts() const { return drain_timeouts_; }

  /// The queued (not yet dispatched) unit descriptions, shared — the
  /// backlog an elastic policy sizes against.
  std::vector<SharedDescription> queued_descriptions() const;

  /// Priority preemption (tenant gateway): withdraws one unit from this
  /// agent and parks it at kFailed — the one final state with a legal
  /// out-edge (kFailed -> kPendingAgent), so the caller can redispatch
  /// it later. A queued unit is simply removed; an executing one has
  /// its payload event canceled and its node/container ledgers
  /// released. Units mid-staging or waiting on the Task Spawner are
  /// refused (their continuations must run out) — callers try another
  /// victim. Returns whether the unit was preempted.
  bool preempt_unit(const std::string& unit_id);

  std::size_t units_preempted() const { return units_preempted_; }

  /// Watch-plane capacity/backlog signal: \p cb fires whenever the
  /// agent's capacity or backlog changed (unit finished, new units
  /// arrived, nodes joined or left). Subscribers (ElasticController)
  /// must guard their own lifetime (weak alive token) — the agent calls
  /// straight through. Cleared on stop().
  void on_capacity_event(std::function<void()> cb);

 private:
  // The launch methods drive staging, the Task Spawner and unit states.
  friend class PlainLaunch;
  friend class YarnLaunch;
  friend class SparkLaunch;

  // --- store interaction (U.3 / state write-back) ---
  /// Drains this pilot's store queue into the agent queue, then runs a
  /// scheduling pass; returns how many units it popped.
  std::size_t poll_store();
  void write_heartbeat();
  /// Activity renews the heartbeat lease early (rate-limited to half the
  /// heartbeat interval) instead of waiting for the timer.
  void renew_heartbeat_lease();
  void notify_capacity_event();
  void set_unit_state(UnitRec& unit, UnitState state);

  // --- Scheduler (U.4/U.5) ---
  void schedule_queued();
  bool dispatch(const std::shared_ptr<UnitRec>& unit);
  /// Traces the placement and folds it into the schedule digest.
  void record_placed(const UnitRec& unit, const std::string& nodes);

  // --- stage-in/out workers (bounded concurrency) ---
  void stage_in(std::shared_ptr<UnitRec> unit,
                std::function<void()> next);
  void stage_out(std::shared_ptr<UnitRec> unit,
                 std::function<void()> next);
  void enqueue_transfer(const saga::Url& src, const saga::Url& dst,
                        common::Bytes bytes, std::function<void()> done);
  void staging_slot_released();

  // --- Task Spawner ---
  /// Books the serialized Task Spawner for one launch of \p latency;
  /// returns the delay until that launch is done.
  common::Seconds spawn_delay(common::Seconds latency);
  /// The payload ended: Failed on a non-zero exit code, else stage-out
  /// and Done.
  void payload_done(const std::shared_ptr<UnitRec>& unit);
  /// Returns what the unit holds and drops it from the running set.
  void release_unit(UnitRec& unit);
  /// The one way a unit leaves its resources mid-run (preemption, drain
  /// timeout, agent stop). The caller records why and picks the next
  /// state.
  void withdraw_unit(UnitRec& unit);
  void finish_unit(std::shared_ptr<UnitRec> unit, UnitState final_state);

  // --- drain machinery ---
  void drain_poll();
  void drain_escalate();
  void drain_finish();
  void requeue_unit(const std::shared_ptr<UnitRec>& unit);
  /// The running units in id order, the order a stop or a drain
  /// timeout withdraws them in.
  std::vector<std::shared_ptr<UnitRec>> running_by_id() const;
  bool node_draining(const std::string& name) const {
    return draining_.count(name) > 0;
  }

  saga::SagaContext& saga_;
  StateStore& store_;
  net::Transport& transport_;
  saga::FileTransferService& transfer_;
  std::string pilot_id_;
  const cluster::MachineProfile& machine_;
  cluster::Allocation allocation_;
  AgentBackend backend_;
  AgentConfig config_;

  /// Control endpoint registered on transport_.
  std::string ctrl_endpoint_;

  std::unique_ptr<LaunchMethod> launch_;

  std::deque<std::shared_ptr<UnitRec>> queue_;  // agent scheduler queue
  /// Dispatched units, unordered (UnitRec::running_pos is each one's
  /// slot).
  std::vector<std::shared_ptr<UnitRec>> running_units_;
  /// Unit records churn once per Compute-Unit; at web scale (1M units)
  /// they come from a slab arena instead of the general-purpose heap.
  /// The shared_ptr keeps the arena alive past the agent for records
  /// still referenced by continuations (DESIGN.md §13).
  std::shared_ptr<common::SlabArena> unit_arena_ =
      std::make_shared<common::SlabArena>();
  std::set<std::string> draining_;              // nodes being drained
  std::vector<std::string> drain_names_;        // active drain, in order
  common::Seconds drain_deadline_ = 0.0;
  bool drain_escalated_ = false;
  std::function<void(bool)> drain_callback_;
  std::size_t drain_timeouts_ = 0;
  common::Seconds spawner_free_at_ = 0.0;       // Task Spawner serialization
  int active_staging_ = 0;                      // stage-in/out worker slots
  std::deque<std::function<void()>> staging_backlog_;
  // Control-plane state (DESIGN.md §10): the store pushes queue activity;
  // the fallback timer covers lost wakeups; the heartbeat is a lease
  // renewed by activity; drains re-check on a bounded self re-arming
  // timer.
  WatchHandle unit_watch_;
  /// Queued units a poll popped before their push's watch delivery
  /// arrived: that many deliveries pop nothing and skip the store.
  std::size_t popped_ahead_ = 0;
  sim::DeadlineTimer fallback_timer_;
  sim::DeadlineTimer heartbeat_lease_;
  sim::DeadlineTimer drain_recheck_;
  common::Seconds last_heartbeat_at_ = -1.0e18;
  std::vector<std::function<void()>> capacity_listeners_;
  bool active_ = false;
  bool stopped_ = false;
  bool saw_first_unit_ = false;
  std::size_t units_completed_ = 0;
  std::size_t units_failed_ = 0;
  std::size_t units_preempted_ = 0;
  std::size_t running_ = 0;
};

}  // namespace hoh::pilot

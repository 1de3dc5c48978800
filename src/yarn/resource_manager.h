#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/machine.h"
#include "common/json.h"
#include "net/transport.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "yarn/node_manager.h"
#include "yarn/types.h"

/// \file resource_manager.h
/// The YARN ResourceManager: application lifecycle (including the
/// two-stage AM-then-task-container allocation the paper identifies as
/// the Compute-Unit startup bottleneck, Fig. 5 inset), a capacity
/// scheduler over (memory, vcores), optional preemption, and REST-style
/// cluster metrics (the paper's agent scheduler consumes exactly these:
/// "updated cluster state information ... obtained via the Resource
/// Manager's REST API").

namespace hoh::yarn {

class ApplicationMaster;

/// RM-side application record.
struct AppReport {
  std::string id;
  std::string name;
  std::string queue;
  AppState state = AppState::kSubmitted;
  common::Seconds submit_time = 0.0;
  common::Seconds start_time = 0.0;   // AM registered
  common::Seconds finish_time = 0.0;
  std::string am_node;
};

/// What a client submits. \p on_am_start is the Application Master's
/// main(): it runs once the AM container is up and registered.
struct AppDescriptor {
  std::string name = "app";
  std::string queue = "default";
  Resource am_resource{1024, 1};
  std::function<void(ApplicationMaster&)> on_am_start;
  /// Completion notification: fires exactly once, synchronously, when the
  /// application reaches a final state (Finished, Failed or Killed) with
  /// the final report — drivers get pushed the outcome instead of polling
  /// application(). Fired after the RM's own bookkeeping (containers
  /// released, pending asks dropped).
  std::function<void(const AppReport&)> on_finished;
};

class ResourceManager {
 public:
  /// Brings up one NodeManager per allocation node and arms their
  /// liveness leases. Scheduler passes run on demand (DESIGN.md §10).
  ResourceManager(sim::Engine& engine, const cluster::Allocation& allocation,
                  YarnConfig config = {},
                  std::vector<QueueConfig> queues = {{"default", 1.0}});
  ~ResourceManager();

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  const YarnConfig& config() const { return config_; }

  /// Submits an application; returns the application id. The AM container
  /// request enters the target queue immediately; allocation happens on a
  /// scheduler pass.
  std::string submit_application(AppDescriptor descriptor);

  /// Kills an application: AM and all its containers are released.
  void kill_application(const std::string& app_id);

  AppReport application(const std::string& app_id) const;
  std::vector<AppReport> applications() const;

  /// The AM handle of a running application (for in-process callers).
  ApplicationMaster& application_master(const std::string& app_id);

  /// REST GET /ws/v1/cluster/metrics equivalent.
  common::Json cluster_metrics() const;

  /// REST GET /ws/v1/cluster/scheduler equivalent (per-queue usage).
  common::Json scheduler_info() const;

  /// Live capacity: sums NMs that are alive and not decommissioning —
  /// the single capacity query schedulers and agent backpressure use, so
  /// totals stay consistent as nodes join and leave mid-run. Both sums
  /// are kept current by the NMs themselves (ClusterView), so these
  /// reads are O(1).
  Resource total_capacity() const { return view_.capacity; }
  Resource total_allocated() const { return view_.allocated; }

  /// Free capacity: total_capacity() minus total_allocated() — the
  /// availableMB/availableVirtualCores of cluster_metrics(), read typed
  /// and without building the REST document or walking the NMs (the
  /// agent's per-dispatch backpressure check).
  Resource available() const;

  std::size_t node_count() const { return node_managers_.size(); }
  /// NMs that can take new containers (alive, not crashed, not
  /// decommissioning): the placement candidates.
  std::size_t schedulable_node_count() const {
    return view_.by_free_memory.size();
  }
  std::size_t live_node_count() const;
  NodeManager& node_manager(const std::string& node);

  /// Returns a failed node to service (recommissioning).
  void recover_node(const std::string& node);

  /// Registers a NodeManager on a freshly granted allocation node (elastic
  /// grow). Its capacity becomes placeable on the next scheduler pass.
  void add_node(std::shared_ptr<cluster::Node> node);

  /// Marks a node decommissioning: no new containers are placed there;
  /// running ones finish undisturbed (graceful shrink).
  void decommission_node(const std::string& node);

  /// Deregisters a NodeManager (drained or dead) — the final step of a
  /// shrink. Throws StateError while the NM still hosts live containers.
  void remove_node(const std::string& node);

  /// REST GET /ws/v1/cluster/apps equivalent.
  common::Json apps_json() const;

  /// Simulates loss of a node: its containers die; applications whose
  /// task containers were lost are notified via the AM's preemption/loss
  /// callback; applications whose *AM* was lost get a new attempt (up to
  /// config().am_max_attempts) or fail. Also the recovery path the
  /// liveness monitor takes when a silently crashed NM times out.
  void fail_node(const std::string& node);

  /// Optional trace sink: detection and recovery decisions are recorded
  /// under category "yarn" (nm_lost, am_restart, app_failed,
  /// task_container_lost).
  void set_trace(sim::Trace* trace) { trace_ = trace; }

  /// State of a container anywhere in the cluster; nullopt once its NM
  /// is gone or the id was never allocated. Drivers use this to tell a
  /// live task from one whose container died without a callback.
  std::optional<ContainerState> container_state(
      const std::string& container_id) const;

  /// Observer for capacity-scheduler preemption decisions: fires once
  /// per preempted container, after the NM released it and before the
  /// AM's preempted callback ran, with (app_id, container_id, queue).
  /// Cross-layer accountants (the tenant gateway's usage ledger, drain
  /// diagnostics) subscribe here instead of wrapping every AM callback.
  using PreemptionHook = std::function<void(
      const std::string& app_id, const std::string& container_id,
      const std::string& queue)>;
  void set_preemption_hook(PreemptionHook hook) {
    preemption_hook_ = std::move(hook);
  }

  /// Cancels pending scheduler passes and liveness leases and kills every
  /// live application (cluster teardown).
  void shutdown();

  /// The simulation engine this RM runs on (for payload drivers that
  /// schedule task durations, e.g. the MR-over-YARN driver).
  sim::Engine& engine() { return engine_; }

 private:
  friend class ApplicationMaster;

  struct PendingAsk {
    std::string app_id;
    ContainerRequest request;
    bool is_am = false;
    std::function<void(const Container&)> on_allocated;  // task asks only
    std::uint64_t seq = 0;
  };

  struct AppRecord {
    AppDescriptor descriptor;
    AppReport report;
    std::unique_ptr<ApplicationMaster> am;
    std::string am_container_id;
    std::vector<std::string> container_ids;  // task containers
    int attempt = 1;                         // AM attempt number
  };

  AppRecord& find_app(const std::string& app_id);
  const AppRecord& find_app(const std::string& app_id) const;

  /// One allocation pass of the capacity scheduler.
  void scheduler_pass();
  void preemption_pass();

  /// Requests a (deduplicated) scheduler pass one scheduler_interval from
  /// now — the RM's allocation latency. Called on every event that
  /// changes demand or capacity.
  void request_scheduler_pass();

  /// Per-NM liveness lease. The timer fires at
  /// last_heartbeat + nm_liveness_timeout; a fresh heartbeat re-arms it,
  /// a stale one fails the node — detection at exactly crash + timeout.
  void arm_liveness_lease(const std::string& node);
  void check_liveness_lease(const std::string& node);
  NodeManager* find_nm(const std::string& node);
  void trace_event(const std::string& name,
                   std::map<std::string, std::string> attrs);

  /// Attempts to place one ask; returns the hosting NM or nullptr.
  NodeManager* try_place(const PendingAsk& ask, Container& out);

  /// Queue usage as a fraction of its capacity share (memory-dominant).
  double queue_usage_ratio(const std::string& queue) const;
  common::MemoryMb queue_used_mb(const std::string& queue) const;

  void on_am_container_running(const std::string& app_id);
  void finish_application(const std::string& app_id, AppState final_state);

  // --- Message boundary (DESIGN.md §14) ---
  // The RM↔NM control plane crosses the session transport as typed
  // messages: AllocateRequest/-Reply, LaunchRequest (completion comes
  // back as a correlated ContainerRunning), ReleaseRequest and the
  // liveness NodeProbe/NodeStatus. Scheduler *reads*
  // (can_fit/available/capacity) stay direct: they model the RM's
  // heartbeat-fed local ledger, exactly as in real YARN, and stay O(1)
  // per lookup at 10k nodes.

  /// Registers "<prefix>.nm" (NM-facing plane) and "<prefix>.rm"
  /// (launch completions) on the active transport.
  void register_endpoints();
  net::Envelope handle_nm_message(const net::Envelope& request);
  bool transport_allocate(NodeManager& nm, const Container& container);
  void transport_launch(const std::string& node,
                        const std::string& container_id,
                        std::function<void()> on_running);
  void transport_release(NodeManager& nm, const std::string& container_id,
                         ContainerState final_state);
  common::Seconds transport_last_heartbeat(const std::string& node);

  // --- ApplicationMaster backend (called via friend) ---
  void am_request_containers(const std::string& app_id, int count,
                             const ContainerRequest& request,
                             std::function<void(const Container&)> cb);
  void am_launch_container(const std::string& app_id,
                           const std::string& container_id,
                           std::function<void()> on_running);
  void am_release_container(const std::string& app_id,
                            const std::string& container_id,
                            ContainerState final_state);
  void am_unregister(const std::string& app_id, bool success);

  NodeManager* nm_hosting(const std::string& container_id);

  sim::Engine& engine_;
  YarnConfig config_;
  /// Active transport: config().transport, or owned_transport_ when the
  /// RM runs standalone.
  net::Transport* transport_ = nullptr;
  std::unique_ptr<net::Transport> owned_transport_;
  std::string nm_endpoint_;
  std::string rm_endpoint_;
  /// Launch-completion correlation: LaunchRequest carries an id; the NM's
  /// completion crosses back as ContainerRunning{id} and resolves here.
  std::map<std::uint64_t, std::function<void()>> pending_running_;
  std::uint64_t next_correlation_ = 1;
  sim::Trace* trace_ = nullptr;
  PreemptionHook preemption_hook_;
  std::vector<QueueConfig> queues_;
  ClusterView view_;  // every NM in node_managers_ counts into it
  std::vector<std::unique_ptr<NodeManager>> node_managers_;
  /// Free-list style indexes (DESIGN.md §13): NM by node name and
  /// hosting NM by container id, so placement, liveness and release
  /// paths stop walking every NodeManager per lookup at 10k nodes.
  std::map<std::string, NodeManager*> nm_index_;
  std::map<std::string, NodeManager*> container_host_;
  std::map<std::string, AppRecord> apps_;
  std::map<std::string, std::deque<PendingAsk>> pending_;  // per queue
  // Demand-driven pass dedup + per-NM liveness leases.
  bool pass_pending_ = false;
  sim::EventHandle pass_event_;
  std::map<std::string, std::unique_ptr<sim::DeadlineTimer>> liveness_leases_;
  bool shut_down_ = false;
  std::uint64_t next_app_number_ = 1;
  std::uint64_t next_container_number_ = 1;
  std::uint64_t next_ask_seq_ = 1;
  std::uint64_t cluster_timestamp_ = 1454300000;  // fixed epoch for ids
};

}  // namespace hoh::yarn

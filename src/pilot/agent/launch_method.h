#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "pilot/descriptions.h"
#include "pilot/states.h"
#include "pilot/unit_record.h"
#include "sim/engine.h"
#include "spark/standalone.h"
#include "yarn/application_master.h"
#include "yarn/yarn_cluster.h"

/// \file launch_method.h
/// The agent's pluggable Launch Method (paper SS-III): everything that
/// differs between running a Compute-Unit with fork/mpiexec, in a YARN
/// container or as a Spark stage. The Agent keeps what every backend
/// shares and calls into exactly one LaunchMethod, chosen when it is
/// built.

namespace hoh::pilot {

class Agent;
struct AgentCapacity;

/// One Compute-Unit the agent holds, from its store pickup to its final
/// state. Only the launch method that admitted the unit writes the
/// fields below exec_event.
struct UnitRec {
  UnitIndex index = 0;  // the unit's key in the store
  std::string id;       // for traces and the schedule digest
  SharedDescription desc;  // the store record's, shared
  UnitState state = UnitState::kPendingAgent;
  /// Its slot in the agent's running set while dispatched.
  std::size_t running_pos = 0;
  sim::EventHandle exec_event;  // the running payload; cancel to stop it

  /// Plain: the (node, cores and memory) pieces held — one for a
  /// single-node placement, two or more for a gang-scheduled MPI unit.
  std::vector<std::pair<cluster::Node*, cluster::ResourceRequest>> pieces;

  /// YARN: memory reserved at admission until the RM ledger shows it,
  /// and the container the unit runs in, in its own application or in
  /// the shared one.
  common::MemoryMb reserved_mb = 0;
  yarn::ApplicationMaster* am = nullptr;
  std::string container_id;
  std::string container_node;
  bool dedicated_app = false;
};

class LaunchMethod {
 public:
  explicit LaunchMethod(Agent& agent) : agent_(agent) {}
  virtual ~LaunchMethod() = default;

  /// LRM: brings the backend up (Mode-I bootstrap, Mode-II connect), then
  /// runs \p on_done unless the agent stopped meanwhile.
  virtual void bootstrap(std::function<void()> on_done) = 0;
  /// LRM: tears the backend down once the agent withdrew every unit.
  virtual void teardown() {}

  /// Admission: true when \p unit fits now, with what it needs reserved;
  /// false leaves it queued.
  virtual bool admit(UnitRec& unit) = 0;
  /// Runs an admitted unit: stage-in, spawn, payload, stage-out.
  virtual void launch(const std::shared_ptr<UnitRec>& unit) = 0;
  /// Stops \p unit where it runs (container, application).
  virtual void withdraw(UnitRec& /*unit*/) {}
  /// Returns what admit() reserved.
  virtual void release(UnitRec& /*unit*/) {}
  /// Replaces the used totals of \p cap with the backend's own ledger.
  virtual void used_capacity(AgentCapacity& /*cap*/) const {}

  /// Per-node daemon start time of a grow; throws StateError when the
  /// cluster is not the pilot's to grow.
  virtual common::Seconds node_start_time() const { return 0.0; }
  virtual void grow(const std::shared_ptr<cluster::Node>& /*node*/) {}

  /// Drain hooks for the nodes \p names: they start decommissioning;
  /// their NodeManagers or executors are idle; their HDFS blocks are
  /// safe elsewhere; what still pins them past the drain timeout is
  /// evicted; they leave.
  virtual void drain(const std::vector<std::string>& /*names*/) {}
  virtual bool drained(const std::vector<std::string>& /*names*/) const {
    return true;
  }
  virtual bool data_safe(const std::vector<std::string>& /*names*/) const {
    return true;
  }
  virtual void evict(const std::vector<std::string>& /*names*/) {}
  virtual void remove(const std::vector<std::string>& /*names*/) {}
  /// Whether a drain timeout must requeue \p unit: it holds resources on
  /// a draining node and no continuation of its own is pending.
  virtual bool on_draining_node(const UnitRec& /*unit*/) const {
    return false;
  }

  virtual yarn::YarnCluster* yarn_cluster() { return nullptr; }
  virtual spark::SparkStandaloneCluster* spark_cluster() { return nullptr; }

 protected:
  Agent& agent_;
};

/// The three launch methods. A Mode-II YARN method borrows \p external;
/// with nullptr it bootstraps and owns its cluster (Mode I).
std::unique_ptr<LaunchMethod> make_plain_launch(Agent& agent);
std::unique_ptr<LaunchMethod> make_yarn_launch(Agent& agent,
                                               yarn::YarnCluster* external);
std::unique_ptr<LaunchMethod> make_spark_launch(Agent& agent);

}  // namespace hoh::pilot

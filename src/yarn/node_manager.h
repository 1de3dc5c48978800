#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "sim/engine.h"
#include "yarn/types.h"

/// \file node_manager.h
/// One YARN NodeManager: owns the live containers of one node, enforces
/// the advertised (memory, vcores) capacity against the shared
/// cluster::Node ledger, and models container-launch latency
/// (localization + JVM start).

namespace hoh::yarn {

/// Container record kept by its NodeManager.
struct Container {
  std::string id;
  std::string app_id;
  std::string node;
  Resource resource;
  ContainerState state = ContainerState::kAllocated;
  bool is_am = false;
};

class NodeManager;

/// What a set of NodeManagers keeps current for its ResourceManager as
/// each NM changes, so the RM reads its cluster sums and picks a
/// placement without walking every NM:
/// - capacity: of the live, non-decommissioning NMs;
/// - allocated: on all of them;
/// - by_free_memory: the NMs that may take containers at all (alive,
///   not crashed, not decommissioning), keyed (-free memory, attach
///   order) — most free memory first, ties in attach order.
struct ClusterView {
  Resource capacity{0, 0};
  Resource allocated{0, 0};
  std::map<std::pair<common::MemoryMb, std::uint64_t>, NodeManager*>
      by_free_memory;
  std::uint64_t attached = 0;  // attach counter (the tie-break order)
};

class NodeManager {
 public:
  NodeManager(sim::Engine& engine, const YarnConfig& config,
              std::shared_ptr<cluster::Node> node);

  const std::string& node_name() const { return node_->name(); }

  /// Advertised capacity (yarn.nodemanager.resource.*).
  const Resource& capacity() const { return capacity_; }
  Resource available() const;
  Resource allocated() const;

  bool can_fit(const Resource& resource) const;

  /// Reserves resources and creates a container in kAllocated state.
  /// Returns false if it does not fit.
  bool allocate(const Container& container);

  /// Starts an allocated container; \p on_running fires after the launch
  /// latency (AM containers take longer).
  void launch(const std::string& container_id,
              std::function<void()> on_running);

  /// Ends a container (completed, killed or preempted alike): its
  /// resources return and its record is erased. Releasing a container
  /// this NM no longer holds is a no-op.
  void release(const std::string& container_id);

  bool has_container(const std::string& container_id) const {
    return find(container_id) != nullptr;
  }
  /// The live container \p container_id; nullptr once it was released
  /// (or was never allocated here).
  const Container* find(const std::string& container_id) const;

  /// The live containers (allocated, launching or running), in id order.
  /// A released container is erased: an NM keeps only live work.
  const std::vector<Container>& containers() const { return containers_; }
  std::size_t live_count() const { return containers_.size(); }

  bool alive() const { return alive_; }

  /// Simulates NM loss (node crash / heartbeat timeout): every live
  /// container is released as KILLED and no further allocations fit.
  void fail();

  /// Silent node crash: the machine drops off the network. Containers
  /// die (resources return to the ledger) and heartbeats stop, but
  /// nobody is notified — the RM only learns of it when its liveness
  /// monitor notices the missing heartbeats and calls fail_node. The
  /// containers lost at the instant of the crash are retained for that
  /// later propagation (lost_on_crash()).
  void crash();

  bool crashed() const { return crashed_; }

  /// Time of the last heartbeat the RM would have seen: now() while the
  /// NM is healthy, frozen at the crash instant afterwards.
  common::Seconds last_heartbeat() const {
    return crashed_ ? crash_time_ : engine_.now();
  }

  /// The containers that were live when crash() hit, in id order; empty
  /// otherwise, and again after fail() or recover().
  const std::vector<Container>& lost_on_crash() const {
    return lost_on_crash_;
  }

  /// Rejoins a failed NM (recommissioning); capacity becomes usable on
  /// the next scheduler pass. Also clears a decommission mark.
  void recover();

  /// Graceful-decommission mark: the scheduler stops placing new
  /// containers here while running ones finish undisturbed.
  void start_decommission();
  bool decommissioning() const { return decommissioning_; }

  /// Counts this NM into \p view from now on; nullptr takes its share
  /// back out of the view it was counted into.
  void attach_view(ClusterView* view);

 private:
  /// Returns \p c's resources to the NM, the view and the node ledger.
  void free_resources(const Container& c);
  /// Adds (\p sign +1) or removes (-1) this NM's share of view_.
  /// Every field change a share depends on is bracketed by -1 / +1.
  void count_in_view(int sign);

  sim::Engine& engine_;
  const YarnConfig& config_;
  std::shared_ptr<cluster::Node> node_;
  Resource capacity_;
  Resource in_use_{0, 0};
  bool alive_ = true;
  bool decommissioning_ = false;
  bool crashed_ = false;
  common::Seconds crash_time_ = 0.0;
  std::vector<Container> lost_on_crash_;
  std::vector<Container> containers_;  // live only, sorted by id
  ClusterView* view_ = nullptr;
  std::uint64_t view_order_ = 0;  // tie-break key in view_->by_free_memory
};

}  // namespace hoh::yarn

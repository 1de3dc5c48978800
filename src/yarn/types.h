#pragma once

#include <string>
#include <vector>

#include "common/control_plane.h"
#include "common/units.h"

/// \file types.h
/// YARN value types: resources, container/application states and the
/// yarn-site.xml style configuration knobs that matter for the paper's
/// measurements.

namespace hoh::net {
class Transport;
}  // namespace hoh::net

namespace hoh::yarn {

/// A YARN resource vector. The paper's agent scheduler "specifically
/// utilizes memory in addition to cores for assigning resource slots" —
/// this is that (memory, vcores) space.
struct Resource {
  common::MemoryMb memory_mb = 1024;
  int vcores = 1;

  friend bool operator==(const Resource&, const Resource&) = default;

  bool fits_in(const Resource& capacity) const {
    return memory_mb <= capacity.memory_mb && vcores <= capacity.vcores;
  }
};

enum class ContainerState {
  kAllocated,   // granted by the scheduler, not yet launched
  kLaunching,   // NM is starting it
  kRunning,
  kCompleted,
  kKilled,
  kPreempted,
};

std::string to_string(ContainerState state);

enum class AppState {
  kSubmitted,    // accepted by the RM, AM container pending
  kAccepted,     // AM container allocated
  kAmLaunching,  // AM container starting
  kRunning,      // AM registered
  kFinished,
  kFailed,
  kKilled,
};

std::string to_string(AppState state);

constexpr bool is_final(AppState s) {
  return s == AppState::kFinished || s == AppState::kFailed ||
         s == AppState::kKilled;
}

/// One outstanding container ask from an Application Master.
struct ContainerRequest {
  Resource resource;
  /// Nodes the AM prefers (data locality). Empty = any node.
  std::vector<std::string> preferred_nodes;
  /// When true (YARN default) the request falls back to any node if the
  /// preferred ones stay busy; when false it waits for them.
  bool relax_locality = true;
};

/// Which pluggable RM scheduler is active
/// (yarn.resourcemanager.scheduler.class).
enum class SchedulerPolicy {
  kCapacity,  // queue shares + starved-queue-first ordering
  kFifo,      // strict submission order across all queues
};

/// The subset of yarn-site.xml that drives observable behaviour.
struct YarnConfig {
  /// Inert: scheduler passes are always demand-driven and NM liveness is
  /// always a per-NM lease (DESIGN.md §10). Kept only for the perfbench/
  /// caller that still assigns it.
  common::ControlPlane control_plane = common::ControlPlane::kWatch;

  Resource minimum_allocation{1024, 1};
  Resource maximum_allocation{8192, 8};

  /// NodeManager advertised capacity; 0 means derive from the node spec
  /// (all cores, 87.5 % of memory — the Hadoop rule of thumb that leaves
  /// room for the OS and daemons).
  common::MemoryMb nm_memory_mb = 0;
  int nm_vcores = 0;

  common::Seconds scheduler_interval = 0.5;  // RM allocation pass latency
  common::Seconds nm_heartbeat = 1.0;
  common::Seconds container_launch_time = 5.0;  // localization + JVM start

  /// AM containers are heavier: full JVM + protocol bootstrap.
  common::Seconds am_launch_time = 12.0;
  common::Seconds am_register_time = 3.0;
  Resource am_resource{1024, 1};

  bool preemption_enabled = false;

  SchedulerPolicy scheduler_policy = SchedulerPolicy::kCapacity;

  /// yarn.resourcemanager.am.max-attempts: how many times the RM
  /// restarts an application's AM after node loss before failing the app.
  int am_max_attempts = 2;

  /// yarn.nm.liveness-monitor.expiry-interval: how long the RM waits
  /// without a heartbeat before declaring an NM lost and killing its
  /// containers. 0 disables liveness monitoring (crashes must then be
  /// reported out of band via ResourceManager::fail_node).
  common::Seconds nm_liveness_timeout = 0.0;

  /// Hadoop's DefaultResourceCalculator schedules on memory only and
  /// oversubscribes vcores (AMs are mostly idle); set false for the
  /// DominantResourceCalculator behaviour that enforces both dimensions.
  bool memory_only_scheduling = true;

  /// Message boundary (DESIGN.md §14): the transport the RM routes its
  /// NM-facing control traffic (allocate / launch / release / liveness
  /// probe) through. Must outlive the ResourceManager. nullptr (the
  /// default) makes the RM own a private InProcessTransport — identical
  /// behaviour, no external wiring needed.
  net::Transport* transport = nullptr;

  /// Rounds a request up to the minimum-allocation multiple the way the
  /// capacity scheduler normalizes asks.
  Resource normalize(const Resource& ask) const;
};

/// One scheduler queue (capacity scheduler configuration).
struct QueueConfig {
  std::string name = "default";
  double capacity = 1.0;  // fraction of cluster resources
};

}  // namespace hoh::yarn

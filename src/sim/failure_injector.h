#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/trace.h"

/// \file failure_injector.h
/// First-class fault injection on the sim engine. Tests used to call
/// BatchScheduler::fail_node by hand at hand-picked instants; the
/// FailureInjector promotes that into a reproducible subsystem: node
/// crashes, repairs, and slow-node episodes are drawn from a seeded
/// distribution and delivered through callbacks, so the same plan + seed
/// replays the identical fault schedule against any layer (hpc batch
/// scheduler, YARN NodeManagers, pilot agents). hohsim exposes it via a
/// plan-file `failures:` section.

namespace hoh::sim {

/// Stochastic fault schedule parameters. All means are exponential
/// inter-arrival means in simulated seconds; a mean of 0 disables that
/// event class.
struct FailurePlan {
  std::uint64_t seed = 42;

  /// Mean time between node crashes (0 = no crashes).
  Seconds mean_time_to_crash = 0.0;
  /// Mean time from a crash to that node's repair (0 = never repaired).
  Seconds mean_time_to_repair = 0.0;
  /// Mean time between slow-node episodes (0 = none).
  Seconds mean_time_to_slow = 0.0;
  /// Compute slowdown applied during an episode (>= 1.0).
  double slow_factor = 2.0;
  /// Fixed episode length.
  Seconds slow_duration = 60.0;

  /// Stop injecting after this many crashes (0 = unlimited).
  int max_crashes = 0;
  /// No events before this instant (lets the workload ramp up).
  Seconds start_after = 0.0;

  /// Throws common::ConfigError on invalid values.
  void validate() const;
};

/// Injector counters, for plan summaries and experiment results.
struct FailureCounters {
  int crashes = 0;
  int repairs = 0;
  int slow_episodes = 0;
};

/// Schedules crash / repair / slow events over a named node set. The
/// injector owns no cluster state: consumers attach callbacks that apply
/// each event to their layer (e.g. BatchScheduler::fail_node). Node
/// picks and inter-arrival times come from one Rng seeded by the plan,
/// so a (plan, node set) pair fully determines the fault schedule.
class FailureInjector {
 public:
  using NodeHandler = std::function<void(const std::string& node)>;
  using SlowHandler =
      std::function<void(const std::string& node, double factor)>;

  FailureInjector(Engine& engine, FailurePlan plan,
                  std::vector<std::string> nodes);

  /// Optional trace sink; every injected event is recorded under
  /// category "failure".
  void set_trace(Trace* trace) { trace_ = trace; }

  void on_crash(NodeHandler fn) { on_crash_ = std::move(fn); }
  void on_repair(NodeHandler fn) { on_repair_ = std::move(fn); }
  /// Episode start: factor = plan.slow_factor. Episode end re-fires the
  /// handler with factor 1.0.
  void on_slow(SlowHandler fn) { on_slow_ = std::move(fn); }

  /// Starts drawing events from the plan. Idempotent.
  void arm();

  /// Stops all future injections (already-delivered events stand).
  void disarm();

  /// Deterministic manual injections for tests and keystone scenarios:
  /// crash/repair a specific node at an absolute sim time, bypassing the
  /// stochastic draw but going through the same delivery + trace path.
  void schedule_crash(Seconds at, const std::string& node);
  void schedule_repair(Seconds at, const std::string& node);

  const FailureCounters& counters() const { return counters_; }
  bool is_down(const std::string& node) const;
  const std::vector<std::string>& nodes() const { return nodes_; }

 private:
  void arm_next_crash();
  void arm_next_slow();
  void deliver_crash(const std::string& node);
  void deliver_repair(const std::string& node);
  void deliver_slow(const std::string& node);
  /// Picks an up (not crashed) node uniformly; empty when all are down.
  std::string pick_up_node();
  void trace_event(const std::string& name, const std::string& node,
                   TraceAttrs extra = {});

  Engine& engine_;
  FailurePlan plan_;
  std::vector<std::string> nodes_;
  common::Rng rng_;
  Trace* trace_ = nullptr;

  NodeHandler on_crash_;
  NodeHandler on_repair_;
  SlowHandler on_slow_;

  std::map<std::string, bool> down_;
  FailureCounters counters_;
  bool armed_ = false;
  EventHandle next_crash_;
  EventHandle next_slow_;
  std::vector<EventHandle> pending_;
};

}  // namespace hoh::sim

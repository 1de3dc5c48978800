#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/control_plane.h"
#include "common/retry.h"
#include "pilot/descriptions.h"
#include "pilot/estimator.h"
#include "pilot/pilot_manager.h"
#include "pilot/session.h"
#include "pilot/states.h"

/// \file unit_manager.h
/// The Unit-Manager: accepts Compute-Unit descriptions, binds them to
/// pilots (U.1), and queues them in the shared state store for the
/// agents to pull (U.2). State queries read the unit documents the
/// agents write back.

namespace hoh::pilot {

class UnitManager;

/// Handle to one submitted Compute-Unit.
class ComputeUnit {
 public:
  const std::string& id() const { return id_; }
  const ComputeUnitDescription& description() const { return description_; }

  /// Current state, read from the shared store document. Memoised
  /// against the store's "unit" write count: while no unit document was
  /// written since the last read, the last answer still holds, so a
  /// barrier poll reads each unit at most once. The memo is
  /// engine-thread-confined (DESIGN.md §7).
  UnitState state() const;

  /// Pilot this unit was bound to.
  const std::string& pilot_id() const { return pilot_id_; }

 private:
  friend class UnitManager;
  ComputeUnit(UnitManager* manager, std::string id, std::string pilot_id,
              ComputeUnitDescription description)
      : manager_(manager),
        id_(std::move(id)),
        pilot_id_(std::move(pilot_id)),
        description_(std::move(description)) {}

  UnitManager* manager_;
  std::string id_;
  std::string pilot_id_;
  ComputeUnitDescription description_;
  // state() read memo: the last document state and the "unit" write
  // count it was read at.
  mutable std::uint64_t cached_at_ = UINT64_MAX;
  mutable UnitState cached_state_ = UnitState::kNew;
  // Position in the manager's submission order.
  std::uint64_t submit_seq_ = 0;
  // The manager's fold order while the unit is open (not yet folded
  // back by reconcile()); 0 once folded.
  std::uint64_t open_seq_ = 0;
};

/// Unit scheduling policy across pilots.
enum class UnitSchedulingPolicy {
  kRoundRobin,   // cycle through pilots
  kLeastLoaded,  // pilot with fewest units bound so far
  kPredictive,   // pilot with least predicted outstanding work per core
                 // (paper SS-V "predictive scheduling" extension)
};

class UnitManager {
 public:
  /// \p estimator is used by kPredictive (a MovingAverageEstimator is
  /// created when none is supplied).
  explicit UnitManager(Session& session,
                       UnitSchedulingPolicy policy =
                           UnitSchedulingPolicy::kRoundRobin,
                       std::shared_ptr<RuntimeEstimator> estimator = nullptr)
      : session_(session),
        policy_(policy),
        estimator_(estimator != nullptr
                       ? std::move(estimator)
                       : std::make_shared<MovingAverageEstimator>()) {
    register_submit_endpoint();
  }

  UnitManager(const UnitManager&) = delete;
  UnitManager& operator=(const UnitManager&) = delete;

  /// Unwatches the dependency watch. The store outlives the manager, so
  /// leaving it armed would dangle `this`.
  ~UnitManager();

  /// Inert: dependency resolution always runs on a store watch
  /// (DESIGN.md §10). Kept only for the perfbench/ caller that still
  /// calls it.
  void set_control_plane(common::ControlPlane /*plane*/) {}

  /// Registers a pilot as a unit target. With recovery enabled, a pilot
  /// added later (e.g. a resubmitted replacement) immediately absorbs
  /// units waiting for a live target.
  void add_pilot(std::shared_ptr<Pilot> pilot);

  /// Enables requeue-on-pilot-failure: units that die with their pilot
  /// (state kFailed) are re-dispatched onto a surviving pilot after the
  /// policy backoff, up to policy.max_attempts total executions each.
  /// Units whose budget is exhausted stay kFailed. Call before or after
  /// add_pilot — existing pilots are wired up too.
  void enable_recovery(common::RetryPolicy policy, std::uint64_t seed = 42);

  /// Units re-dispatched after pilot failure (recovery counter).
  std::size_t units_requeued() const { return units_requeued_; }
  /// Units that exhausted their retry budget and stayed kFailed.
  std::size_t units_abandoned() const { return units_abandoned_; }

  /// Submits units (U.1/U.2). Returns handles in input order. Units with
  /// depends_on are held client-side until every dependency is Done
  /// (checked once at submit, then on every unit state write), and
  /// canceled if a dependency fails, is canceled or is unknown.
  /// Dependencies may reference units submitted earlier or in the same
  /// batch.
  std::vector<std::shared_ptr<ComputeUnit>> submit(
      const std::vector<ComputeUnitDescription>& descriptions);

  /// Single-unit convenience.
  std::shared_ptr<ComputeUnit> submit(
      const ComputeUnitDescription& description);

  /// True when every submitted unit reached a *settled* final state.
  /// With recovery enabled, a kFailed unit whose requeue is still
  /// scheduled or waiting for a live pilot counts as in flight, so
  /// barrier loops don't conclude a phase mid-recovery. Also folds
  /// finished units into the estimator (see reconcile()).
  bool all_done();

  std::size_t submitted() const { return units_.size(); }
  std::size_t done_count() const;

  /// Folds finished units back into the estimator and the per-pilot
  /// backlog accounting. Called implicitly by all_done() and by the
  /// kPredictive pilot pick.
  void reconcile();

  RuntimeEstimator& estimator() { return *estimator_; }
  std::shared_ptr<RuntimeEstimator> estimator_ptr() { return estimator_; }

  Session& session() { return session_; }

  /// Message boundary (DESIGN.md §14): the endpoint clients (the tenant
  /// gateway) submit SubmitRequest messages to. Unique per manager, so
  /// several managers can share one session transport.
  const std::string& submit_endpoint() const { return submit_endpoint_; }

  /// Handle of a submitted unit; nullptr when unknown.
  std::shared_ptr<ComputeUnit> find_unit(const std::string& unit_id) const;

  /// Registered pilot by id; nullptr when unknown.
  std::shared_ptr<Pilot> pilot_by_id(const std::string& pilot_id) const;

  /// Gateway preemption path: re-dispatches a unit parked at kFailed
  /// (e.g. by Agent::preempt_unit) onto a live pilot, crossing the one
  /// legal out-edge of a final state — kFailed -> kPendingAgent, the
  /// same edge the fault-recovery requeue uses — and rebinding the
  /// pilot accounting. Unlike recovery it consumes no retry budget and
  /// applies no backoff. Returns false when the unit is unknown, not
  /// kFailed, or no live pilot exists.
  bool redispatch_failed(const std::string& unit_id);

 private:
  friend class ComputeUnit;

  std::string pick_pilot(const ComputeUnitDescription& desc);
  /// Registers submit_endpoint_ ("um<N>.submit") on the session
  /// transport; its handler unpacks the description and runs submit().
  void register_submit_endpoint();
  void dispatch_to_agent(const std::string& unit_id,
                         const std::string& pilot_id,
                         const ComputeUnitDescription& desc);
  void check_dependencies();
  /// Marks \p unit open (to be folded back by reconcile()) and queues
  /// it for reconcile()'s next pass.
  void open_unit(ComputeUnit* unit);
  /// Drains the "unit" write feed into the recheck lists.
  void absorb_unit_writes();

  // --- fault recovery (requeue units off a dead pilot) ---
  void watch_pilot_for_recovery(const std::shared_ptr<Pilot>& pilot);
  void handle_pilot_failure(const std::string& pilot_id);
  void try_requeue(const std::string& unit_id);
  /// Moves a kFailed unit onto pilot \p to: bound counts and predicted
  /// backlog follow it, the store sees kFailed -> kPendingAgent and the
  /// unit joins that agent's queue. Returns the pilot it left. Shared by
  /// the recovery requeue and the gateway's redispatch.
  std::string rebind_failed(ComputeUnit& unit, const std::string& to);
  void drain_pending_requeues();
  /// Any registered pilot not in a final state; nullptr when none.
  Pilot* find_live_pilot();

  Session& session_;
  UnitSchedulingPolicy policy_;
  std::string submit_endpoint_;
  std::shared_ptr<RuntimeEstimator> estimator_;
  std::map<std::string, double> backlog_seconds_;    // pilot -> predicted
  std::map<std::string, double> unit_predictions_;   // unit -> predicted

  /// Incremental reconcile/all_done bookkeeping (DESIGN.md §13). The
  /// trace is append-only, so reconcile() scans it once past
  /// trace_scan_pos_ into per-unit Executing/Done time maps instead of
  /// re-walking the whole trace per finished unit. Unit states change
  /// only through "unit" document writes, which the store's write feed
  /// (unit_feed_) names, so a poll re-reads only the units written or
  /// (re)opened since the last one: open_recheck_ for reconcile() (open
  /// units, folded in open_seq_ order), settle_recheck_ for all_done().
  /// unsettled_ holds units whose terminal outcome is not yet locked in
  /// (kDone/kCanceled are sinks and leave it; kFailed stays, since
  /// requeue/redispatch may revive it), blocking_ those of them not
  /// settled at their last read — the barrier holds while it is
  /// non-empty. A recovery input (recovery_dirty_) rechecks all of
  /// unsettled_.
  std::size_t trace_scan_pos_ = 0;
  std::map<std::string, double> exec_time_;          // unit -> Executing at
  std::map<std::string, double> done_time_;          // unit -> Done at
  std::uint64_t unit_feed_ = 0;  // opened by the first reconcile()
  std::uint64_t next_open_seq_ = 1;
  /// The handles are owned by units_ for the manager's lifetime.
  std::vector<ComputeUnit*> open_recheck_;
  std::vector<ComputeUnit*> settle_recheck_;
  std::map<std::uint64_t, ComputeUnit*> unsettled_;  // by submit_seq_
  std::unordered_set<const ComputeUnit*> blocking_;
  std::size_t settled_done_ = 0;  // kDone units dropped from unsettled_

  /// Set by every recovery input that can unsettle a unit without a
  /// unit write (limbo/abandon triage, a pilot reaching kFailed):
  /// the next all_done() rechecks every unsettled unit.
  bool recovery_dirty_ = false;

  /// Units held back by dependencies: (unit id, pilot id, description).
  struct HeldUnit {
    std::string unit_id;
    std::string pilot_id;
    ComputeUnitDescription desc;
  };
  std::vector<HeldUnit> held_;
  std::map<std::string, std::shared_ptr<ComputeUnit>> by_id_;
  WatchHandle dep_watch_;  // armed while held_ is non-empty
  std::vector<std::shared_ptr<Pilot>> pilots_;
  std::map<std::string, std::size_t> bound_counts_;  // pilot -> units
  std::vector<std::shared_ptr<ComputeUnit>> units_;
  std::size_t rr_next_ = 0;

  // Fault recovery: opt-in unit requeue off failed pilots.
  bool recovery_enabled_ = false;
  common::RetryPolicy recovery_policy_;
  common::Rng recovery_rng_{42};
  std::map<std::string, int> requeue_counts_;   // unit -> requeues done
  std::vector<std::string> pending_requeue_;    // waiting for a live pilot
  std::set<std::string> limbo_;  // kFailed but a requeue is in flight
  std::size_t units_requeued_ = 0;
  std::size_t units_abandoned_ = 0;
};

}  // namespace hoh::pilot

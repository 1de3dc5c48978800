#include "pilot/unit_manager.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "net/message.h"
#include "net/transport.h"
#include "pilot/agent/agent.h"

namespace hoh::pilot {

namespace {

/// Session-unique submit-endpoint prefix per manager (engine-thread
/// only; the names never enter digests).
std::string next_um_prefix() {
  static std::uint64_t counter = 0;
  return "um" + std::to_string(counter++);
}

}  // namespace

void UnitManager::register_submit_endpoint() {
  submit_endpoint_ = next_um_prefix() + ".submit";
  session_.transport().register_endpoint(
      submit_endpoint_, [this](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::SubmitRequest>(env);
        return net::make_envelope(net::SubmitReply{
            submit(unpack_unit_description(msg.description))->id()});
      });
}

UnitState ComputeUnit::state() const {
  return manager_->session().store().unit_state(id_);
}

UnitManager::~UnitManager() {
  session_.transport().unregister_endpoint(submit_endpoint_);
  if (unit_feed_ != 0) session_.store().close_feed(unit_feed_);
  if (dep_watch_.valid()) {
    session_.store().unwatch(dep_watch_);
    dep_watch_ = WatchHandle{};
  }
}

void UnitManager::add_pilot(std::shared_ptr<Pilot> pilot) {
  recovery_dirty_ = true;
  if (pilot == nullptr) {
    throw common::ConfigError("UnitManager::add_pilot: null pilot");
  }
  bound_counts_.emplace(pilot->id(), 0);
  backlog_seconds_.emplace(pilot->id(), 0.0);
  pilots_.push_back(pilot);
  if (recovery_enabled_) {
    watch_pilot_for_recovery(pilot);
    // A replacement pilot may be exactly what stranded units wait for.
    drain_pending_requeues();
  }
}

std::string UnitManager::pick_pilot(const ComputeUnitDescription& /*desc*/) {
  if (pilots_.empty()) {
    throw common::StateError("UnitManager has no pilots");
  }
  // Dead pilots are never targets; fall back to any pilot only when all
  // are final (the submit still records the binding and the unit fails
  // with that pilot's queue).
  const auto usable = [this](const std::shared_ptr<Pilot>& p) {
    return !is_final(p->state());
  };
  const bool any_live = std::any_of(pilots_.begin(), pilots_.end(), usable);
  switch (policy_) {
    case UnitSchedulingPolicy::kRoundRobin: {
      for (std::size_t i = 0; i < pilots_.size(); ++i) {
        const auto& pilot = pilots_[rr_next_ % pilots_.size()];
        ++rr_next_;
        if (!any_live || usable(pilot)) return pilot->id();
      }
      return pilots_[rr_next_ % pilots_.size()]->id();
    }
    case UnitSchedulingPolicy::kLeastLoaded: {
      std::string best;
      std::size_t best_count = SIZE_MAX;
      for (const auto& pilot : pilots_) {
        if (any_live && !usable(pilot)) continue;
        const std::size_t count = bound_counts_.at(pilot->id());
        if (count < best_count) {
          best = pilot->id();
          best_count = count;
        }
      }
      return best;
    }
    case UnitSchedulingPolicy::kPredictive: {
      // Least predicted outstanding seconds, normalized by the pilot's
      // *live* node count so elastic resizes shift load immediately; the
      // description size stands in until the placeholder job starts.
      reconcile();
      std::string best;
      double best_backlog = 1e300;
      for (const auto& pilot : pilots_) {
        if (any_live && !usable(pilot)) continue;
        const int live = pilot->live_nodes() > 0
                             ? pilot->live_nodes()
                             : pilot->description().nodes;
        const double normalized = backlog_seconds_.at(pilot->id()) /
                                  static_cast<double>(std::max(1, live));
        if (normalized < best_backlog) {
          best = pilot->id();
          best_backlog = normalized;
        }
      }
      return best;
    }
  }
  throw common::ConfigError("unknown scheduling policy");
}

void UnitManager::enable_recovery(common::RetryPolicy policy,
                                  std::uint64_t seed) {
  recovery_dirty_ = true;
  policy.validate();
  recovery_policy_ = policy;
  recovery_rng_ = common::Rng(seed);
  if (recovery_enabled_) return;
  recovery_enabled_ = true;
  for (const auto& pilot : pilots_) watch_pilot_for_recovery(pilot);
}

void UnitManager::watch_pilot_for_recovery(
    const std::shared_ptr<Pilot>& pilot) {
  const std::string pilot_id = pilot->id();
  pilot->on_state_change([this, pilot_id](PilotState state) {
    if (state != PilotState::kFailed) return;
    // A dead pilot unsettles its kFailed units before any unit write
    // lands: a barrier poll at the crash instant must recheck them.
    recovery_dirty_ = true;
    // Decouple from the failure callback stack (the agent is mid-
    // teardown when the pilot announces kFailed).
    session_.engine().schedule(
        0.0, [this, pilot_id] { handle_pilot_failure(pilot_id); });
  });
}

void UnitManager::handle_pilot_failure(const std::string& pilot_id) {
  recovery_dirty_ = true;
  if (!recovery_enabled_) return;
  for (const auto& unit : units_) {
    if (unit->pilot_id() != pilot_id) continue;
    if (unit->state() != UnitState::kFailed) continue;
    const std::string unit_id = unit->id();
    const int requeues = requeue_counts_[unit_id];
    if (requeues < 0) continue;  // already abandoned
    // Total executions = 1 original + requeues; one more must fit the
    // budget.
    if (!recovery_policy_.allows(requeues + 2)) {
      ++units_abandoned_;
      requeue_counts_[unit_id] = -1;  // mark: budget gone, stop counting
      session_.trace().record(session_.engine().now(), "recovery",
                              "unit_abandoned",
                              {{"unit", unit_id},
                               {"pilot", pilot_id},
                               {"requeues", std::to_string(requeues)}});
      continue;
    }
    session_.trace().begin_span(session_.engine().now(), "recovery",
                                "unit_outage", unit_id);
    limbo_.insert(unit_id);
    const common::Seconds backoff =
        recovery_policy_.backoff_for(requeues + 1, recovery_rng_);
    session_.engine().schedule(backoff,
                               [this, unit_id] { try_requeue(unit_id); });
  }
}

Pilot* UnitManager::find_live_pilot() {
  for (const auto& pilot : pilots_) {
    if (!is_final(pilot->state())) return pilot.get();
  }
  return nullptr;
}

void UnitManager::try_requeue(const std::string& unit_id) {
  recovery_dirty_ = true;
  auto it = by_id_.find(unit_id);
  if (it == by_id_.end()) {
    limbo_.erase(unit_id);
    return;
  }
  auto& unit = it->second;
  if (unit->state() != UnitState::kFailed) {  // raced with something
    limbo_.erase(unit_id);
    return;
  }
  Pilot* target = find_live_pilot();
  if (target == nullptr) {
    // No live pilot yet: park until add_pilot delivers a replacement.
    pending_requeue_.push_back(unit_id);
    return;
  }
  const std::string to = target->id();
  const std::string from = rebind_failed(*unit, to);
  requeue_counts_[unit_id] += 1;
  ++units_requeued_;
  session_.trace().record(session_.engine().now(), "recovery",
                          "unit_requeued",
                          {{"unit", unit_id},
                           {"from", from},
                           {"to", to},
                           {"attempt",
                            std::to_string(requeue_counts_[unit_id] + 1)}});
  session_.trace().end_span(session_.engine().now(), "recovery",
                            "unit_outage", unit_id);
  limbo_.erase(unit_id);
}

std::shared_ptr<ComputeUnit> UnitManager::find_unit(
    const std::string& unit_id) const {
  auto it = by_id_.find(unit_id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::shared_ptr<Pilot> UnitManager::pilot_by_id(
    const std::string& pilot_id) const {
  for (const auto& pilot : pilots_) {
    if (pilot->id() == pilot_id) return pilot;
  }
  return nullptr;
}

std::string UnitManager::rebind_failed(ComputeUnit& unit,
                                       const std::string& to) {
  const std::string from = unit.pilot_id();
  // Rebind accounting: the unit now counts against the new pilot.
  if (bound_counts_.count(from) > 0 && bound_counts_[from] > 0) {
    bound_counts_[from] -= 1;
  }
  bound_counts_[to] += 1;
  auto pred = unit_predictions_.find(unit.id());
  const double predicted =
      pred != unit_predictions_.end() ? pred->second : 0.0;
  if (unit.open_seq_ != 0) {
    // Not folded back yet: the old pilot's backlog still carries it.
    backlog_seconds_[from] -= predicted;
  } else {
    // Folded back already: the unit is live again, re-open it so the
    // next reconcile() folds the new attempt too.
    open_unit(&unit);
  }
  backlog_seconds_[to] += predicted;
  unit.pilot_id_ = to;

  // kFailed -> kPendingAgent is the one legal edge out of a final state
  // (see transitions.h); then back onto a live agent queue (U.2 again).
  session_.store().set_unit_state(unit.id(), UnitState::kPendingAgent, to);
  session_.store().queue_push("agent." + to, unit.id());
  return from;
}

bool UnitManager::redispatch_failed(const std::string& unit_id) {
  recovery_dirty_ = true;
  auto it = by_id_.find(unit_id);
  if (it == by_id_.end()) return false;
  auto& unit = it->second;
  if (unit->state() != UnitState::kFailed) return false;
  Pilot* target = find_live_pilot();
  if (target == nullptr) return false;
  const std::string to = target->id();
  const std::string from = rebind_failed(*unit, to);
  session_.trace().record(session_.engine().now(), "tenant",
                          "unit_redispatched",
                          {{"unit", unit_id}, {"from", from}, {"to", to}});
  return true;
}

void UnitManager::drain_pending_requeues() {
  recovery_dirty_ = true;
  if (pending_requeue_.empty()) return;
  std::vector<std::string> waiting;
  waiting.swap(pending_requeue_);
  for (const auto& unit_id : waiting) try_requeue(unit_id);
}

void UnitManager::reconcile() { poll(/*settle=*/false); }

void UnitManager::poll(bool settle) {
  // Fold the trace increment into the per-unit time maps: the trace is
  // append-only, so every event is visited once per run, not once per
  // finished unit. (With trace rollup enabled, unit events are not
  // stored and the estimator simply never observes — scale runs use
  // known durations, not predictions.)
  const auto& events = session_.trace().events();
  for (; trace_scan_pos_ < events.size(); ++trace_scan_pos_) {
    const auto& e = events[trace_scan_pos_];
    if (e.category != "unit") continue;
    if (e.name != "Executing" && e.name != "Done") continue;
    const auto unit_attr = e.attrs.find("unit");
    if (unit_attr == e.attrs.end()) continue;
    if (e.name == "Executing") {
      exec_time_[unit_attr->second] = e.time;
    } else {
      done_time_[unit_attr->second] = e.time;
    }
  }
  // An open unit's state can only have turned final through a write
  // since the last pass, or it was (re)opened since: recheck exactly
  // those, folding in open order (the estimator and the backlog sums
  // are order-sensitive).
  absorb_unit_writes();
  // Only units whose outcome is not locked in are settle-checked, and of
  // those only the ones written or submitted since the last poll —
  // unless a recovery input moved, which can unsettle any kFailed unit.
  // kDone and kCanceled are sinks and leave the working set for good;
  // kFailed stays (requeue/redispatch may cross its one legal out-edge).
  if (settle && recovery_dirty_) {
    for (const auto& [seq, u] : unsettled_) list_for_settle(u);
  }
  std::sort(open_recheck_.begin(), open_recheck_.end(),
            [](const ComputeUnit* a, const ComputeUnit* b) {
              return a->open_seq_ < b->open_seq_;
            });
  // Each listed unit is read once per poll: a unit listed twice sorts
  // next to itself, and one both lists name is settled here.
  const ComputeUnit* previous = nullptr;
  for (ComputeUnit* unit : open_recheck_) {
    if (unit == previous) continue;
    previous = unit;
    const UnitState state = unit->state();
    if (settle && unit->settle_listed_) settle_unit(unit, state);
    if (!is_final(state)) continue;
    unit->open_seq_ = 0;
    auto pred = unit_predictions_.find(unit->id());
    if (pred != unit_predictions_.end()) {
      backlog_seconds_[unit->pilot_id()] -= pred->second;
    }
    // Observed runtime: Executing -> Done. Entries are dropped once
    // consumed; a later requeue re-records them.
    const auto exec_at = exec_time_.find(unit->id());
    const auto done_at = done_time_.find(unit->id());
    if (state == UnitState::kDone && exec_at != exec_time_.end() &&
        done_at != done_time_.end() && done_at->second >= exec_at->second) {
      estimator_->observe(unit->description(),
                          done_at->second - exec_at->second);
    }
    if (exec_at != exec_time_.end()) exec_time_.erase(exec_at);
    if (done_at != done_time_.end()) done_time_.erase(done_at);
  }
  open_recheck_.clear();
  if (!settle) return;
  for (ComputeUnit* unit : settle_recheck_) {
    if (unit->settle_listed_) settle_unit(unit, unit->state());
  }
  settle_recheck_.clear();
  recovery_dirty_ = false;
}

void UnitManager::open_unit(ComputeUnit* unit) {
  unit->open_seq_ = next_open_seq_++;
  open_recheck_.push_back(unit);
}

void UnitManager::list_for_settle(ComputeUnit* unit) {
  if (unit->settle_listed_) return;
  unit->settle_listed_ = true;
  settle_recheck_.push_back(unit);
}

void UnitManager::absorb_unit_writes() {
  StateStore& store = session_.store();
  if (unit_feed_ == 0) {
    // Every unit submitted so far waits in both recheck lists already;
    // from here on the feed names the ones written.
    unit_feed_ = store.open_feed("unit");
    return;
  }
  for (const std::string& id : store.drain_feed(unit_feed_)) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) continue;  // another manager's unit
    ComputeUnit* unit = it->second.get();
    if (unit->open_seq_ != 0) open_recheck_.push_back(unit);
    list_for_settle(unit);
  }
}

std::vector<std::shared_ptr<ComputeUnit>> UnitManager::submit(
    const std::vector<ComputeUnitDescription>& descriptions) {
  std::vector<std::shared_ptr<ComputeUnit>> out;
  out.reserve(descriptions.size());
  bool held_any = false;
  // Validated up front, so no unit of a refused batch is dispatched.
  for (const auto& desc : descriptions) {
    if (desc.cores < 1) {
      throw common::ConfigError("ComputeUnitDescription.cores must be >= 1");
    }
  }
  for (const auto& desc : descriptions) {
    const std::string unit_id = session_.next_unit_id();
    const std::string pilot_id = pick_pilot(desc);  // U.1
    bound_counts_[pilot_id] += 1;
    const double predicted = estimator_->predict(desc);
    backlog_seconds_[pilot_id] += predicted;
    unit_predictions_[unit_id] = predicted;

    session_.trace().record(session_.engine().now(), "unit", "Submitted",
                            {{"unit", unit_id}, {"pilot", pilot_id}});
    session_.trace().begin_span(session_.engine().now(), "unit", "startup",
                                unit_id);

    if (desc.depends_on.empty()) {
      dispatch_to_agent(unit_id, pilot_id, desc);
    } else {
      // Held back: the record exists (state New) so handles can query it.
      // The units dispatched before it land first, in submit order.
      flush_dispatch();
      session_.store().put_unit(unit_id,
                                UnitRecord{UnitState::kNew, pilot_id, desc});
      held_.push_back(HeldUnit{unit_id, pilot_id, desc});
      held_any = true;
      // Any unit-document state write (agent write-back, cancellation)
      // may resolve a dependency, so re-check on those.
      if (!dep_watch_.valid()) {
        dep_watch_ = session_.store().watch(
            "unit", "", [this](const WatchEvent& event) {
              if (event.type != WatchEventType::kUpdate) return;
              if (!held_.empty()) check_dependencies();
            });
      }
    }

    auto handle = std::shared_ptr<ComputeUnit>(
        new ComputeUnit(this, unit_id, pilot_id, desc));
    by_id_[unit_id] = handle;
    out.push_back(std::move(handle));
  }
  // Before anything reads the store: a held unit may depend on a unit
  // dispatched after it in this batch.
  flush_dispatch();
  units_.insert(units_.end(), out.begin(), out.end());
  std::uint64_t seq = units_.size() - out.size();  // out's place in units_
  for (const auto& unit : out) {
    unit->submit_seq_ = seq++;
    open_unit(unit.get());
    unsettled_.emplace(unit->submit_seq_, unit.get());
    list_for_settle(unit.get());
  }
  // A dependency that is already settled (Done, Failed, Canceled) or
  // unknown never produces another unit update, so the watch alone would
  // hold its dependents forever: resolve those now, synchronously, so a
  // batch without dependencies schedules no extra engine event.
  if (held_any) check_dependencies();
  return out;
}

void UnitManager::dispatch_to_agent(const std::string& unit_id,
                                    const std::string& pilot_id,
                                    const ComputeUnitDescription& desc) {
  // U.2 over the message boundary: document put + agent queue push,
  // batched into one StoreIngest through the session transport
  // (DESIGN.md §14). The unit document crosses in its binary Json form,
  // bit-exact.
  net::StoreIngest::Unit unit{
      unit_id, "agent." + pilot_id,
      pack_unit_document(
          UnitRecord{UnitState::kPendingAgent, pilot_id, desc})};
  const std::size_t bytes = net::min_wire_bytes<net::StoreIngest::Unit>() +
                            unit.unit_id.size() + unit.queue.size() +
                            unit.document.size();
  if (pending_ingest_bytes_ + bytes >= net::kBatchBytes) flush_dispatch();
  pending_ingest_.push_back(std::move(unit));
  pending_ingest_bytes_ += bytes;
}

void UnitManager::flush_dispatch() {
  if (pending_ingest_.empty()) return;
  net::StoreIngest batch{std::string(kUnitCollection),
                         std::exchange(pending_ingest_, {})};
  pending_ingest_bytes_ = 0;
  net::call<net::Ack>(session_.transport(), "store.ingest", batch);
}

void UnitManager::check_dependencies() {
  std::vector<HeldUnit> still_held;
  for (auto& held : held_) {
    bool ready = true;
    bool doomed = false;
    for (const auto& dep_id : held.desc.depends_on) {
      auto dep = by_id_.find(dep_id);
      if (dep == by_id_.end()) {
        doomed = true;  // unknown dependency can never resolve
        break;
      }
      const UnitState dep_state = dep->second->state();
      if (dep_state == UnitState::kFailed ||
          dep_state == UnitState::kCanceled) {
        doomed = true;
        break;
      }
      if (dep_state != UnitState::kDone) ready = false;
    }
    if (doomed) {
      flush_dispatch();  // the units released before it land first
      session_.store().set_unit_state(held.unit_id, UnitState::kCanceled);
      session_.trace().record(session_.engine().now(), "unit", "Canceled",
                              {{"unit", held.unit_id},
                               {"reason", "dependency-failed"}});
      continue;
    }
    if (!ready) {
      still_held.push_back(std::move(held));
      continue;
    }
    dispatch_to_agent(held.unit_id, held.pilot_id, held.desc);
  }
  flush_dispatch();
  held_ = std::move(still_held);
  if (held_.empty() && dep_watch_.valid()) {
    session_.store().unwatch(dep_watch_);
    dep_watch_ = WatchHandle{};
  }
}

std::shared_ptr<ComputeUnit> UnitManager::submit(
    const ComputeUnitDescription& description) {
  return submit(std::vector<ComputeUnitDescription>{description}).front();
}

bool UnitManager::all_done() {
  // Incremental barrier (DESIGN.md §13): unit states live in the "unit"
  // collection, so a unit no write named since the last poll keeps the
  // answer it gave then — unless a recovery input (limbo/abandon
  // triage, a pilot crash) moved. Long-running waves poll every few
  // simulated seconds while few units change; a poll costs
  // O(units written since the last one), not O(in-flight units).
  poll(/*settle=*/true);
  return blocking_.empty();
}

bool UnitManager::settled_now(const ComputeUnit* u, UnitState state) const {
  if (state == UnitState::kFailed && recovery_enabled_) {
    if (limbo_.count(u->id()) > 0) {
      return false;  // requeue in flight: not settled yet
    }
    // A unit that died with its pilot but has not been triaged yet
    // (the zero-delay handle_pilot_failure event is still queued) is
    // equally in flight: without this, a barrier polling at the exact
    // crash instant concludes the run finished. Abandoned units
    // (budget gone, marked -1) are settled.
    const auto budget = requeue_counts_.find(u->id());
    const bool abandoned =
        budget != requeue_counts_.end() && budget->second < 0;
    if (!abandoned) {
      for (const auto& pilot : pilots_) {
        if (pilot->id() == u->pilot_id() &&
            pilot->state() == PilotState::kFailed) {
          return false;
        }
      }
    }
  }
  return is_final(state);
}

void UnitManager::settle_unit(ComputeUnit* u, UnitState state) {
  u->settle_listed_ = false;
  const auto it = unsettled_.find(u->submit_seq_);
  if (it == unsettled_.end()) return;  // settled already
  if (state == UnitState::kDone || state == UnitState::kCanceled) {
    if (state == UnitState::kDone) ++settled_done_;
    unsettled_.erase(it);
    blocking_.erase(u);
  } else if (settled_now(u, state)) {
    blocking_.erase(u);
  } else {
    blocking_.insert(u);
  }
}

std::size_t UnitManager::done_count() const {
  std::size_t n = settled_done_;
  for (const auto& [seq, u] : unsettled_) {
    if (u->state() == UnitState::kDone) ++n;
  }
  return n;
}

}  // namespace hoh::pilot

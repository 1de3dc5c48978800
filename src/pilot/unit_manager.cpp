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

/// The per-unit trace labels, interned once instead of on every submit.
const sim::TraceName kUnitTrace("unit");
const sim::TraceName kSubmitted("Submitted");
const sim::TraceName kStartupSpan("startup");

/// Session-unique submit-endpoint prefix per manager (engine-thread
/// only; the names never enter digests).
std::string next_um_prefix() {
  static std::uint64_t counter = 0;
  return "um" + std::to_string(counter++);
}

/// Refuses a description submit() must not queue: no cores, or a staged
/// file whose URL names no scheme or host (it could not cross the unit
/// document).
void validate(const ComputeUnitDescription& desc) {
  if (desc.cores < 1) {
    throw common::ConfigError("ComputeUnitDescription.cores must be >= 1");
  }
  for (const auto* files : {&desc.input_staging, &desc.output_staging}) {
    for (const StagedFile& file : *files) {
      if (file.url.scheme().empty() || file.url.host().empty()) {
        throw common::ConfigError(
            "ComputeUnitDescription: staged file URL needs a scheme and a "
            "host: " + file.url.str());
      }
    }
  }
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
  return manager_->session().store().unit_state(index_);
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
  for (const auto& handle : units_) {
    ComputeUnit* unit = handle.get();
    if (unit->pilot_id() != pilot_id) continue;
    if (unit->state() != UnitState::kFailed) continue;
    const int requeues = unit->requeues_;
    if (requeues < 0) continue;  // already abandoned
    // Total executions = 1 original + requeues; one more must fit the
    // budget.
    if (!recovery_policy_.allows(requeues + 2)) {
      ++units_abandoned_;
      unit->requeues_ = -1;  // mark: budget gone, stop counting
      session_.trace().record(session_.engine().now(), "recovery",
                              "unit_abandoned",
                              {{"unit", unit->id()},
                               {"pilot", pilot_id},
                               {"requeues", std::to_string(requeues)}});
      continue;
    }
    session_.trace().begin_span(session_.engine().now(), "recovery",
                                "unit_outage", unit->id());
    unit->in_limbo_ = true;
    const common::Seconds backoff =
        recovery_policy_.backoff_for(requeues + 1, recovery_rng_);
    session_.engine().schedule(backoff, [this, unit] { try_requeue(unit); });
  }
}

Pilot* UnitManager::find_live_pilot() {
  for (const auto& pilot : pilots_) {
    if (!is_final(pilot->state())) return pilot.get();
  }
  return nullptr;
}

void UnitManager::try_requeue(ComputeUnit* unit) {
  recovery_dirty_ = true;
  if (unit->state() != UnitState::kFailed) {  // raced with something
    unit->in_limbo_ = false;
    return;
  }
  Pilot* target = find_live_pilot();
  if (target == nullptr) {
    // No live pilot yet: park until add_pilot delivers a replacement.
    pending_requeue_.push_back(unit);
    return;
  }
  const std::string to = target->id();
  const std::string from = rebind_failed(*unit, to);
  unit->requeues_ += 1;
  ++units_requeued_;
  session_.trace().record(session_.engine().now(), "recovery",
                          "unit_requeued",
                          {{"unit", unit->id()},
                           {"from", from},
                           {"to", to},
                           {"attempt", std::to_string(unit->requeues_ + 1)}});
  session_.trace().end_span(session_.engine().now(), "recovery",
                            "unit_outage", unit->id());
  unit->in_limbo_ = false;
}

ComputeUnit* UnitManager::unit_at(UnitIndex index) const {
  return index < by_index_.size() ? by_index_[index] : nullptr;
}

std::shared_ptr<ComputeUnit> UnitManager::find_unit(
    const std::string& unit_id) const {
  const auto index = session_.store().unit_index(unit_id);
  const ComputeUnit* unit = index ? unit_at(*index) : nullptr;
  return unit != nullptr ? units_[unit->submit_seq_] : nullptr;
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
  const double predicted = unit.predicted_;
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
  session_.store().set_unit_state(unit.index_, UnitState::kPendingAgent, to);
  session_.store().queue_push("agent." + to, unit.index_);
  return from;
}

bool UnitManager::redispatch_failed(const std::string& unit_id) {
  recovery_dirty_ = true;
  const auto unit = find_unit(unit_id);
  if (unit == nullptr || unit->state() != UnitState::kFailed) return false;
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
  std::vector<ComputeUnit*> waiting;
  waiting.swap(pending_requeue_);
  for (ComputeUnit* unit : waiting) try_requeue(unit);
}

void UnitManager::reconcile() { poll(/*settle=*/false); }

void UnitManager::poll(bool settle) {
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
    for (const auto& u : units_) {
      if (u->unsettled_) list_for_settle(u.get());
    }
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
    backlog_seconds_[unit->pilot_id()] -= unit->predicted_;
    // Observed runtime: the store's stamps of the unit's last Executing
    // and Done writes (a requeued unit's last run).
    if (state == UnitState::kDone) {
      const UnitRunTimes run = session_.store().unit_run_times(unit->index_);
      estimator_->observe(unit->description(), run.done - run.executing);
    }
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
    unit_feed_ = store.open_feed();
    return;
  }
  for (const UnitIndex index : store.drain_feed(unit_feed_)) {
    ComputeUnit* unit = unit_at(index);
    if (unit == nullptr) continue;  // another manager's unit
    if (unit->open_seq_ != 0) open_recheck_.push_back(unit);
    list_for_settle(unit);
  }
}

std::vector<std::shared_ptr<ComputeUnit>> UnitManager::submit(
    const std::vector<ComputeUnitDescription>& descriptions) {
  // Validated up front, so no unit of a refused batch is dispatched.
  for (const auto& desc : descriptions) validate(desc);
  std::vector<std::shared_ptr<ComputeUnit>> out;
  out.reserve(descriptions.size());
  bool held_any = false;
  StateStore& store = session_.store();
  // Every unit of the batch is new, and a unit's first put appends its
  // row, in submit order: the batch's indices follow the rows there are.
  const std::size_t first = store.unit_count();
  for (const auto& desc : descriptions) {
    std::string unit_id = session_.next_unit_id();
    std::string pilot_id = pick_pilot(desc);  // U.1
    bound_counts_[pilot_id] += 1;
    const double predicted = estimator_->predict(desc);
    backlog_seconds_[pilot_id] += predicted;

    session_.trace().record(session_.engine().now(), kUnitTrace, kSubmitted,
                            {{"unit", unit_id}, {"pilot", pilot_id}});
    session_.trace().begin_span(session_.engine().now(), kUnitTrace,
                                kStartupSpan, unit_id);

    // The one copy of the description: the handle, a held unit's record
    // and the U.2 hand-over share it.
    auto unit = std::shared_ptr<ComputeUnit>(new ComputeUnit(
        this, std::move(unit_id), std::move(pilot_id),
        std::make_shared<const ComputeUnitDescription>(desc)));
    unit->predicted_ = predicted;
    if (desc.depends_on.empty()) {
      dispatch_to_agent(*unit);
    } else {
      // Held back: the record exists (state New) so handles can query it.
      // The units dispatched before it land first, in submit order.
      flush_dispatch();
      store.put_unit(unit->id(), UnitRecord{UnitState::kNew, unit->pilot_id(),
                                            unit->description_});
      held_any = true;
      // Any unit-document state write (agent write-back, cancellation)
      // may resolve a dependency, so re-check on those.
      if (!dep_watch_.valid()) {
        dep_watch_ = store.watch(
            "unit", "", [this](const WatchEvent& event) {
              if (event.type != WatchEventType::kUpdate) return;
              if (!held_.empty()) check_dependencies();
            });
      }
    }
    out.push_back(std::move(unit));
  }
  // Before anything reads the store: a held unit may depend on a unit
  // dispatched after it in this batch.
  flush_dispatch();
  if (store.unit_count() != first + out.size()) {
    throw common::StateError(
        "UnitManager::submit: the store gained units it did not submit");
  }
  units_.insert(units_.end(), out.begin(), out.end());
  std::uint64_t seq = units_.size() - out.size();  // out's place in units_
  by_index_.resize(first + out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ComputeUnit* unit = out[i].get();
    unit->index_ = static_cast<UnitIndex>(first + i);
    by_index_[unit->index_] = unit;
    unit->submit_seq_ = seq++;
    open_unit(unit);
    list_for_settle(unit);
    if (!unit->description().depends_on.empty()) held_.push_back(unit);
  }
  // A dependency that is already settled (Done, Failed, Canceled) or
  // unknown never produces another unit update, so the watch alone would
  // hold its dependents forever: resolve those now, synchronously, so a
  // batch without dependencies schedules no extra engine event.
  if (held_any) check_dependencies();
  return out;
}

void UnitManager::dispatch_to_agent(const ComputeUnit& unit) {
  // U.2 over the message boundary: document put + agent queue push,
  // batched into one StoreIngest through the session transport
  // (DESIGN.md §14). The unit document crosses packed from the shared
  // description, bit-exact.
  net::StoreIngest::Unit ingest{
      unit.id(), "agent." + unit.pilot_id(),
      pack_unit_document(UnitRecord{UnitState::kPendingAgent,
                                    unit.pilot_id(), unit.description_})};
  const std::size_t bytes = net::min_wire_bytes<net::StoreIngest::Unit>() +
                            ingest.unit_id.size() + ingest.queue.size() +
                            ingest.document.size();
  if (pending_ingest_bytes_ + bytes >= net::kBatchBytes) flush_dispatch();
  pending_ingest_.push_back(std::move(ingest));
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
  StateStore& store = session_.store();
  std::vector<ComputeUnit*> still_held;
  for (ComputeUnit* held : held_) {
    bool ready = true;
    bool doomed = false;
    for (const auto& dep_id : held->description().depends_on) {
      const auto index = store.unit_index(dep_id);
      const ComputeUnit* dep = index ? unit_at(*index) : nullptr;
      if (dep == nullptr) {
        doomed = true;  // unknown dependency can never resolve
        break;
      }
      const UnitState dep_state = dep->state();
      if (dep_state == UnitState::kFailed ||
          dep_state == UnitState::kCanceled) {
        doomed = true;
        break;
      }
      if (dep_state != UnitState::kDone) ready = false;
    }
    if (doomed) {
      flush_dispatch();  // the units released before it land first
      store.set_unit_state(held->index_, UnitState::kCanceled);
      session_.trace().record(session_.engine().now(), "unit", "Canceled",
                              {{"unit", held->id()},
                               {"reason", "dependency-failed"}});
      continue;
    }
    if (!ready) {
      still_held.push_back(held);
      continue;
    }
    dispatch_to_agent(*held);
  }
  flush_dispatch();
  held_ = std::move(still_held);
  if (held_.empty() && dep_watch_.valid()) {
    store.unwatch(dep_watch_);
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
  return blocking_count_ == 0;
}

bool UnitManager::settled_now(const ComputeUnit* u, UnitState state) const {
  if (state == UnitState::kFailed && recovery_enabled_) {
    if (u->in_limbo_) return false;  // requeue in flight: not settled yet
    // A unit that died with its pilot but has not been triaged yet
    // (the zero-delay handle_pilot_failure event is still queued) is
    // equally in flight: without this, a barrier polling at the exact
    // crash instant concludes the run finished. Abandoned units
    // (budget gone, marked -1) are settled.
    if (u->requeues_ >= 0) {  // not abandoned
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
  if (!u->unsettled_) return;  // settled already
  // kDone and kCanceled are sinks: the unit settles for good.
  const bool sink =
      state == UnitState::kDone || state == UnitState::kCanceled;
  if (sink) {
    if (state == UnitState::kDone) ++settled_done_;
    u->unsettled_ = false;
  }
  const bool blocking = !sink && !settled_now(u, state);
  if (blocking != u->blocking_) {
    blocking_count_ = blocking ? blocking_count_ + 1 : blocking_count_ - 1;
    u->blocking_ = blocking;
  }
}

std::size_t UnitManager::done_count() const {
  std::size_t n = settled_done_;
  for (const auto& u : units_) {
    if (u->unsettled_ && u->state() == UnitState::kDone) ++n;
  }
  return n;
}

}  // namespace hoh::pilot

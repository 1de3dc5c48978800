#include "tenant/submission_gateway.h"

#include <algorithm>

#include "common/error.h"
#include "net/message.h"
#include "net/transport.h"
#include "pilot/agent/agent.h"
#include "pilot/transitions.h"
#include "pilot/unit_record.h"

namespace hoh::tenant {

SchedulingPolicy scheduling_policy_from_string(const std::string& name) {
  if (name == "fifo") return SchedulingPolicy::kFifo;
  if (name == "fair-share" || name == "fairshare") {
    return SchedulingPolicy::kFairShare;
  }
  throw common::ConfigError("unknown gateway policy: " + name);
}

const char* to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kFairShare:
      return "fair-share";
  }
  return "?";
}

SubmissionGateway::SubmissionGateway(pilot::UnitManager& um,
                                     GatewayConfig config)
    : um_(um),
      engine_(um.session().engine()),
      config_(config),
      scheduler_(config.decay_half_life, config.policy),
      accounting_(config.accounting_journal) {
  // Watch plane: the gateway learns about unit lifecycle progress from
  // the same store writes the agents make — in-flight units reaching
  // kExecuting feed the wait-time accounting, final states free a
  // window slot and trigger a dispatch tick. No periodic loop.
  watch_ = um_.session().store().watch(
      "unit", "",
      [this](const pilot::WatchEvent& event) { on_store_event(event); });
}

SubmissionGateway::~SubmissionGateway() {
  if (watch_.valid()) {
    um_.session().store().unwatch(watch_);
    watch_ = pilot::WatchHandle{};
  }
  if (tick_event_.valid()) {
    engine_.cancel(tick_event_);
    tick_event_ = sim::EventHandle{};
  }
}

void SubmissionGateway::add_tenant(TenantSpec spec) {
  if (spec.id.empty()) {
    throw common::ConfigError("SubmissionGateway: empty tenant id");
  }
  TenantRec rec;
  rec.bucket = TokenBucket(spec.quota.submit_rate, spec.quota.submit_burst);
  scheduler_.add_tenant(spec.id, spec.share_weight);
  rec.spec = std::move(spec);
  tenants_.push_back(std::move(rec));
}

bool SubmissionGateway::quota_allows(const TenantRec& tenant,
                                     int head_cores) const {
  const TenantQuota& quota = tenant.spec.quota;
  if (quota.max_in_flight_units > 0 &&
      static_cast<int>(tenant.flights.size()) >=
          quota.max_in_flight_units) {
    return false;
  }
  if (quota.max_cores > 0 &&
      tenant.cores_in_flight + head_cores > quota.max_cores) {
    return false;
  }
  return true;
}

void SubmissionGateway::refresh_eligibility(TenantIndex t) {
  const TenantRec& tenant = tenants_[t];
  const bool eligible =
      !tenant.pending.empty() &&
      quota_allows(tenant, tenant.pending.front().desc.cores);
  scheduler_.set_eligible(t, eligible,
                          eligible ? tenant.pending.front().seq : 0);
}

Admission SubmissionGateway::submit(const std::string& tenant_id,
                                    pilot::ComputeUnitDescription desc) {
  const TenantIndex t = scheduler_.index_of(tenant_id);  // or NotFound
  TenantRec& tenant = tenants_[t];
  const common::Seconds now = engine_.now();
  accounting_.on_submitted(now, tenant_id, desc.name);

  // Admission gate 1: submit rate. Over-rate work is refused outright —
  // before any StateStore insert — so a storm from one tenant cannot
  // flood the shared store.
  if (!tenant.bucket.try_take(now)) {
    accounting_.on_rejected(now, tenant_id, desc.name, "rate-limit");
    return Admission{false, false, "rate-limit"};
  }

  // Admission gate 2: capacity quotas queue (never reject) — the unit
  // stays gateway-side until a dispatch pass finds room.
  const bool immediate =
      tenant.pending.empty() && quota_allows(tenant, desc.cores) &&
      (config_.dispatch_window <= 0 ||
       static_cast<int>(in_flight_.size()) < config_.dispatch_window);
  PendingUnit unit;
  unit.seq = next_seq_++;
  unit.desc = std::move(desc);
  unit.submit_time = now;
  accounting_.on_admitted(now, tenant_id, unit.desc.name, !immediate);
  tenant.pending.push_back(std::move(unit));
  pending_units_ += 1;
  refresh_eligibility(t);
  request_dispatch();
  return Admission{true, !immediate, ""};
}

void SubmissionGateway::request_dispatch() {
  if (tick_pending_) return;
  tick_pending_ = true;
  tick_event_ = engine_.schedule(0.0, [this] {
    tick_pending_ = false;
    tick_event_ = sim::EventHandle{};
    dispatch_pass();
  });
}

void SubmissionGateway::dispatch_pass() {
  const common::Seconds now = engine_.now();
  while (true) {
    const TenantIndex winner = scheduler_.pick(now);
    if (winner == kNoTenant) return;

    if (config_.dispatch_window > 0 &&
        static_cast<int>(in_flight_.size()) >= config_.dispatch_window) {
      // Window full. Fair-share may evict a much lower-priority tenant's
      // freshest unit for the winner; otherwise wait for a completion.
      // The pick above still stamped the winner's last pick — the "lost
      // turn" the perfbench pins encode (DESIGN.md §11).
      if (config_.policy == SchedulingPolicy::kFairShare &&
          config_.preemption && try_preempt_for(winner, now)) {
        continue;  // a slot is free now; re-run the pick
      }
      return;
    }
    dispatch_head(winner);
  }
}

void SubmissionGateway::enter_window(InFlight::iterator flight) {
  const TenantIndex t = flight->second.tenant;
  TenantRec& tenant = tenants_[t];
  if (tenant.flights.empty()) {
    tenant.holder_pos = holders_.size();
    holders_.push_back(t);
  }
  tenant.cores_in_flight += flight->second.cores;
  const auto pos = std::upper_bound(
      tenant.flights.begin(), tenant.flights.end(), flight,
      [](InFlight::iterator a, InFlight::iterator b) {
        if (a->second.dispatch_time != b->second.dispatch_time) {
          return a->second.dispatch_time < b->second.dispatch_time;
        }
        return a->second.seq < b->second.seq;
      });
  tenant.flights.insert(pos, flight);
}

void SubmissionGateway::leave_window(InFlight::iterator flight) {
  TenantRec& tenant = tenants_[flight->second.tenant];
  tenant.cores_in_flight -= flight->second.cores;
  tenant.flights.erase(
      std::find(tenant.flights.begin(), tenant.flights.end(), flight));
  if (tenant.flights.empty()) {
    const TenantIndex moved = holders_.back();
    holders_[tenant.holder_pos] = moved;
    tenants_[moved].holder_pos = tenant.holder_pos;
    holders_.pop_back();
  }
}

void SubmissionGateway::dispatch_head(TenantIndex t) {
  const common::Seconds now = engine_.now();
  TenantRec& tenant = tenants_[t];
  PendingUnit unit = std::move(tenant.pending.front());
  tenant.pending.pop_front();

  FlightRec flight;
  if (unit.unit_id.empty()) {
    // First dispatch: the unit enters the StateStore here (U.1/U.2) —
    // and only here, which is the admission-before-insert invariant.
    // The submission crosses the message boundary (DESIGN.md §14): the
    // description travels packed from its fields in a SubmitRequest
    // and the Unit-Manager answers with the assigned unit id.
    const auto reply = net::call<net::SubmitReply>(
        um_.session().transport(), um_.submit_endpoint(),
        net::SubmitRequest{tenant.spec.id,
                           pilot::pack_unit_description(unit.desc)});
    unit.unit_id = reply.unit_id;
    flight.handle = um_.find_unit(unit.unit_id);
  } else {
    // Parked preempted unit: cross the legal kFailed -> kPendingAgent
    // edge back onto a live pilot.
    if (!um_.redispatch_failed(unit.unit_id)) {
      tenant.pending.push_front(std::move(unit));  // no live pilot yet
      refresh_eligibility(t);
      return;
    }
    flight.handle = um_.find_unit(unit.unit_id);
  }
  pending_units_ -= 1;
  flight.tenant = t;
  flight.name = unit.desc.name;
  flight.seq = unit.seq;
  flight.submit_time = unit.submit_time;
  flight.dispatch_time = now;
  flight.cores = unit.desc.cores;
  flight.duration = unit.desc.duration;
  flight.wait_recorded = unit.wait_recorded;
  if (config_.policy == SchedulingPolicy::kFairShare) {
    // Charge the estimated usage at dispatch; a preemption refunds it.
    flight.charged = unit.desc.cores * std::max(unit.desc.duration, 0.0);
    scheduler_.charge(t, flight.charged, now);
  }
  accounting_.on_dispatched(now, tenant.spec.id, flight.name);
  um_.session().trace().record(now, "tenant", "dispatched",
                               {{"tenant", tenant.spec.id},
                                {"unit", unit.unit_id}});
  const auto placed =
      in_flight_.emplace(unit.unit_id, std::move(flight)).first;
  enter_window(placed);
  refresh_eligibility(t);
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_.size());
}

bool SubmissionGateway::try_preempt_for(TenantIndex claimant,
                                        common::Seconds now) {
  // Victim tenant: lowest effective priority among window holders,
  // ties to the smallest id.
  TenantIndex victim = kNoTenant;
  double victim_priority = 0.0;
  for (const TenantIndex t : holders_) {
    if (t == claimant) continue;
    const double priority = scheduler_.effective_priority(t, now);
    if (victim == kNoTenant || priority < victim_priority ||
        (priority == victim_priority &&
         tenants_[t].spec.id < tenants_[victim].spec.id)) {
      victim = t;
      victim_priority = priority;
    }
  }
  if (victim == kNoTenant) return false;
  const double claimant_priority =
      scheduler_.effective_priority(claimant, now);
  if (claimant_priority < config_.preempt_ratio * victim_priority) {
    return false;
  }

  // Victim unit: the victim tenant's most recently dispatched in-flight
  // unit (least sunk work). The agent may refuse one mid-staging; try
  // the next.
  TenantRec& owner = tenants_[victim];
  for (auto rit = owner.flights.rbegin(); rit != owner.flights.rend();
       ++rit) {
    const InFlight::iterator entry = *rit;
    const std::string& unit_id = entry->first;
    FlightRec& flight = entry->second;
    auto pilot = um_.pilot_by_id(flight.handle->pilot_id());
    if (pilot == nullptr || pilot->agent() == nullptr) continue;
    if (!pilot->agent()->preempt_unit(unit_id)) continue;

    // The victim now sits at kFailed in the store (the PR 4 requeue
    // edge's tail state). Park it at the front of its tenant queue so
    // it is the next unit its tenant redispatches.
    PendingUnit parked;
    parked.seq = flight.seq;
    parked.desc = flight.handle->description();
    parked.submit_time = flight.submit_time;
    parked.unit_id = unit_id;
    parked.wait_recorded = flight.wait_recorded;
    scheduler_.charge(victim, -flight.charged, now);  // refund
    accounting_.on_preempted(now, owner.spec.id, flight.name);
    um_.session().trace().record(now, "tenant", "preempted",
                                 {{"tenant", owner.spec.id},
                                  {"unit", unit_id},
                                  {"for", tenants_[claimant].spec.id}});
    owner.pending.push_front(std::move(parked));
    pending_units_ += 1;
    leave_window(entry);
    in_flight_.erase(entry);
    refresh_eligibility(victim);
    units_preempted_ += 1;
    return true;
  }
  return false;
}

void SubmissionGateway::on_store_event(const pilot::WatchEvent& event) {
  if (event.type != pilot::WatchEventType::kUpdate) return;
  auto it = in_flight_.find(event.key);
  if (it == in_flight_.end()) return;
  const pilot::UnitState state = it->second.handle->state();
  const common::Seconds now = engine_.now();
  if (state == pilot::UnitState::kExecuting && !it->second.wait_recorded) {
    it->second.wait_recorded = true;
    accounting_.on_started(now, tenants_[it->second.tenant].spec.id,
                           it->second.name,
                           now - it->second.submit_time);
  }
  if (pilot::is_final(state)) handle_final(event.key, state);
}

void SubmissionGateway::handle_final(const std::string& unit_id,
                                     pilot::UnitState state) {
  auto it = in_flight_.find(unit_id);
  if (it == in_flight_.end()) return;
  const TenantIndex t = it->second.tenant;
  leave_window(it);
  FlightRec flight = std::move(it->second);
  in_flight_.erase(it);
  refresh_eligibility(t);
  const std::string& tenant_id = tenants_[t].spec.id;
  const common::Seconds now = engine_.now();
  if (state == pilot::UnitState::kDone) {
    accounting_.on_completed(now, tenant_id, flight.name,
                             flight.cores * flight.duration);
    completed_names_.push_back(flight.name);
  } else {
    accounting_.on_failed(now, tenant_id, flight.name);
  }
  // A slot freed: see whether queued work fits now. This tick — driven
  // by the completion's store write — is the gateway's only dispatch
  // trigger besides submit() itself.
  request_dispatch();
}

bool SubmissionGateway::quiescent() const {
  return in_flight_.empty() && pending_units_ == 0;
}

}  // namespace hoh::tenant

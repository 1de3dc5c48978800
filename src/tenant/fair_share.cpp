#include "tenant/fair_share.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "common/error.h"

namespace hoh::tenant {

namespace {
/// Floor under decayed usage so a fresh tenant's priority is finite and
/// the weight ordering still holds at zero usage.
constexpr double kUsageEpsilon = 1e-9;

/// priority_bound's slack, in units of log2: a generous multiple of the
/// rounding error in log2/exp2, the key's sum and the decay exponent,
/// each at most a few ulps of the magnitudes summed below.
constexpr double kExponentSlack = 64.0 * DBL_EPSILON;

/// priority_bound's absolute slack: covers the precision a subnormal
/// decay factor loses, for any usage below 2^900 core-seconds.
constexpr double kAbsoluteSlack = 0x1p-100;
}  // namespace

bool FairShareScheduler::ByRank::operator()(const Entry& a,
                                            const Entry& b) const {
  if (a.key != b.key) return a.key < b.key;
  if (a.usage != b.usage) return a.usage < b.usage;
  if (a.stamp != b.stamp) return a.stamp < b.stamp;
  if (a.order != b.order) return a.order < b.order;
  return (*assocs)[a.tenant].id < (*assocs)[b.tenant].id;
}

FairShareScheduler::FairShareScheduler(common::Seconds half_life,
                                       SchedulingPolicy policy)
    : half_life_(half_life), policy_(policy) {}

TenantIndex FairShareScheduler::add_tenant(const std::string& id,
                                           double share_weight) {
  if (id.empty()) {
    throw common::ConfigError("FairShareScheduler: empty tenant id");
  }
  if (share_weight <= 0.0) {
    throw common::ConfigError("FairShareScheduler: share_weight must be > 0");
  }
  if (has_tenant(id)) {
    throw common::ConfigError("FairShareScheduler: duplicate tenant " + id);
  }
  const auto t = static_cast<TenantIndex>(assocs_.size());
  Assoc assoc;
  assoc.id = id;
  assoc.weight = share_weight;
  assoc.index =
      &indexes_.try_emplace(share_weight, ByRank{&assocs_}).first->second;
  assocs_.push_back(std::move(assoc));
  by_id_.emplace(id, t);
  return t;
}

TenantIndex FairShareScheduler::index_of(const std::string& id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    throw common::NotFoundError("FairShareScheduler: unknown tenant " + id);
  }
  return it->second;
}

const FairShareScheduler::Assoc& FairShareScheduler::find(
    TenantIndex t) const {
  if (t >= assocs_.size()) {
    throw common::NotFoundError("FairShareScheduler: unknown tenant index " +
                                std::to_string(t));
  }
  return assocs_[t];
}

double FairShareScheduler::decay_to(const Assoc& assoc,
                                    common::Seconds now) const {
  if (half_life_ <= 0.0 || now <= assoc.stamp) return assoc.usage;
  return assoc.usage * std::exp2(-(now - assoc.stamp) / half_life_);
}

void FairShareScheduler::advance_clock(common::Seconds now) {
  if (now < clock_) {
    throw common::StateError(
        "FairShareScheduler: time ran backwards (" + std::to_string(now) +
        " < " + std::to_string(clock_) + ")");
  }
  clock_ = now;
}

void FairShareScheduler::charge(TenantIndex t, double usage,
                                common::Seconds now) {
  find(t);  // range check
  advance_clock(now);
  Assoc& assoc = assocs_[t];
  // Clamped below at zero so a preemption refund cannot push usage
  // negative (the charge decayed since it was made).
  assoc.usage = std::max(0.0, decay_to(assoc, now) + usage);
  assoc.stamp = now;
  reindex(t);
}

double FairShareScheduler::decayed_usage(TenantIndex t,
                                         common::Seconds now) const {
  return decay_to(find(t), now);
}

double FairShareScheduler::priority(const Assoc& assoc,
                                    common::Seconds now) const {
  return assoc.weight / (decay_to(assoc, now) + kUsageEpsilon);
}

double FairShareScheduler::effective_priority(TenantIndex t,
                                              common::Seconds now) const {
  return priority(find(t), now);
}

FairShareScheduler::Entry FairShareScheduler::entry_for(TenantIndex t) const {
  const Assoc& assoc = assocs_[t];
  Entry entry;
  entry.tenant = t;
  if (policy_ == SchedulingPolicy::kFifo) {
    entry.order = assoc.head_seq;
    return entry;
  }
  entry.order = assoc.last_pick;
  if (assoc.usage == 0.0) {
    // Every zero-usage tenant of one weight has the same priority,
    // whatever its stamp: one run, ordered by the tie-break alone.
    entry.key = -std::numeric_limits<double>::infinity();
  } else if (half_life_ <= 0.0) {
    entry.key = assoc.usage;  // no decay: usage is the priority order
    entry.usage = assoc.usage;
  } else {
    // decayed(now) = 2^(key - now / half_life): the same shift for
    // every tenant, so the order of keys never changes while time runs.
    entry.key = std::log2(assoc.usage) + assoc.stamp / half_life_;
    entry.usage = assoc.usage;
    entry.stamp = assoc.stamp;
  }
  return entry;
}

void FairShareScheduler::reindex(TenantIndex t) {
  Assoc& assoc = assocs_[t];
  if (!assoc.eligible) return;
  assoc.index->erase(assoc.pos);
  assoc.pos = assoc.index->insert(entry_for(t)).first;
}

void FairShareScheduler::set_eligible(TenantIndex t, bool eligible,
                                      std::uint64_t head_seq) {
  find(t);  // range check
  Assoc& assoc = assocs_[t];
  if (assoc.eligible == eligible &&
      (!eligible || assoc.head_seq == head_seq)) {
    return;
  }
  if (assoc.eligible) assoc.index->erase(assoc.pos);
  assoc.eligible = eligible;
  assoc.head_seq = head_seq;
  if (eligible) assoc.pos = assoc.index->insert(entry_for(t)).first;
}

double FairShareScheduler::priority_bound(const Entry& entry, double weight,
                                          common::Seconds now) const {
  // A lower bound on the decayed usage of `entry` and of every entry
  // after it (their keys are no smaller). The priority formula is
  // monotone under IEEE rounding, so the bound's priority is an upper
  // bound on every computed priority it covers.
  double usage_floor = 0.0;  // a zero-usage entry: usage is never < 0
  if (entry.usage > 0.0 && half_life_ <= 0.0) {
    usage_floor = entry.key;
  } else if (entry.usage > 0.0) {
    const double shift = now / half_life_;
    const double slack =
        kExponentSlack * (2048.0 + std::abs(entry.key) + std::abs(shift));
    usage_floor = std::max(
        0.0, std::exp2(entry.key - shift - slack) - kAbsoluteSlack);
  }
  return weight / (usage_floor + kUsageEpsilon);
}

TenantIndex FairShareScheduler::pick(common::Seconds now) {
  advance_clock(now);
  return policy_ == SchedulingPolicy::kFifo ? pick_fifo()
                                            : pick_fair_share(now);
}

TenantIndex FairShareScheduler::pick_fifo() const {
  const Entry* best = nullptr;
  for (const auto& [weight, index] : indexes_) {
    if (!index.empty() &&
        (best == nullptr || index.begin()->order < best->order)) {
      best = &*index.begin();
    }
  }
  return best == nullptr ? kNoTenant : best->tenant;
}

TenantIndex FairShareScheduler::pick_fair_share(common::Seconds now) {
  TenantIndex best = kNoTenant;
  double best_priority = 0.0;
  for (const auto& [weight, index] : indexes_) {
    auto it = index.begin();
    while (it != index.end()) {
      // Stop once nothing left in this index can tie or win: rounding
      // in the bound can only cost a visit, never change the winner.
      if (best != kNoTenant &&
          priority_bound(*it, weight, now) < best_priority) {
        break;
      }
      const Assoc& assoc = assocs_[it->tenant];
      const double p = priority(assoc, now);
      const bool wins =
          best == kNoTenant || p > best_priority ||
          (p == best_priority &&
           (assoc.last_pick < assocs_[best].last_pick ||
            (assoc.last_pick == assocs_[best].last_pick &&
             assoc.id < assocs_[best].id)));
      if (wins) {
        best = it->tenant;
        best_priority = p;
      }
      // The rest of this (usage, stamp) run has the same priority and
      // loses the tie-break to its head.
      Entry run_end = *it;
      run_end.order = std::numeric_limits<std::uint64_t>::max();
      it = index.upper_bound(run_end);
    }
  }
  if (best == kNoTenant) return kNoTenant;
  assocs_[best].last_pick = ++pick_seq_;
  reindex(best);
  return best;
}

}  // namespace hoh::tenant

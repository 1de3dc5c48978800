#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "common/units.h"

/// \file fair_share.h
/// SLURM assoc_mgr-style fair-share scheduler: each tenant carries a
/// share weight and an exponentially decayed usage accumulator;
/// effective priority is share_weight / (decayed_usage + epsilon). The
/// gateway orders its cross-tenant dispatch queue by this priority, so
/// a tenant that consumed more than its share in the recent past yields
/// to tenants below theirs, and the half-life controls how fast history
/// is forgiven.
///
/// The scheduler also owns the gateway's eligible set (tenants whose
/// queue head fits their quotas) as one ordered index per share weight,
/// so a pick costs O(log tenants) instead of a scan (DESIGN.md §11,
/// "Dispatch cost").

namespace hoh::tenant {

/// Cross-tenant ordering of the gateway dispatch queue.
enum class SchedulingPolicy {
  kFifo,       // global arrival order, tenant-blind
  kFairShare,  // FairShareScheduler priority order
};

/// Dense tenant handle: tenants are numbered 0, 1, ... in registration
/// order, so the dispatch path indexes arrays instead of string maps.
using TenantIndex = std::uint32_t;
inline constexpr TenantIndex kNoTenant =
    std::numeric_limits<TenantIndex>::max();

class FairShareScheduler {
 public:
  /// \p half_life: seconds for accumulated usage to decay to half.
  /// Non-positive disables decay (usage accumulates forever).
  /// \p policy selects what pick() returns: the fair-share winner, or
  /// (kFifo) the eligible tenant whose queue head arrived first.
  explicit FairShareScheduler(
      common::Seconds half_life = 600.0,
      SchedulingPolicy policy = SchedulingPolicy::kFairShare);

  // The index comparators point into this object.
  FairShareScheduler(const FairShareScheduler&) = delete;
  FairShareScheduler& operator=(const FairShareScheduler&) = delete;

  /// Registers a tenant and returns its dense index. Throws ConfigError
  /// for an empty or already registered id or a non-positive weight.
  TenantIndex add_tenant(const std::string& id, double share_weight);
  bool has_tenant(const std::string& id) const {
    return by_id_.count(id) > 0;
  }
  /// Throws NotFoundError for an unregistered id.
  TenantIndex index_of(const std::string& id) const;
  const std::string& id(TenantIndex t) const { return find(t).id; }

  /// Adds \p usage (core-seconds) to the tenant's accumulator at \p now.
  /// The result is clamped at zero so a refund cannot go negative.
  void charge(TenantIndex t, double usage, common::Seconds now);

  /// Usage decayed to \p now (lazy: stored value + stamp, decayed on
  /// read, so idle tenants cost nothing).
  double decayed_usage(TenantIndex t, common::Seconds now) const;

  /// share_weight / (decayed_usage + epsilon). Higher = served sooner.
  double effective_priority(TenantIndex t, common::Seconds now) const;

  /// Enters (\p eligible) or leaves the eligible set. \p head_seq is the
  /// arrival sequence number of the tenant's queue head, the FIFO key.
  void set_eligible(TenantIndex t, bool eligible, std::uint64_t head_seq);

  /// Fair-share: the highest-priority eligible tenant, ties broken to
  /// the least recently picked, then the lexicographically smallest id
  /// — with equal shares and equal usage this degenerates to
  /// round-robin. The winner's last pick is stamped. FIFO: the eligible
  /// tenant with the smallest head_seq, nothing stamped. kNoTenant when
  /// the set is empty. Throws StateError if \p now precedes an earlier
  /// charge() or pick(): the index assumes time never runs backwards.
  TenantIndex pick(common::Seconds now);

 private:
  struct Assoc;

  /// Index entry. Fair-share orders by (key, usage, stamp, last pick,
  /// id): zero usage first (key -inf), then the time-invariant key
  /// log2(usage) + stamp / half_life (usage itself without decay), so
  /// one (usage, stamp) run shares one priority and lists its members
  /// in tie-break order. FIFO leaves key/usage/stamp at zero and orders
  /// by head sequence number.
  struct Entry {
    double key = 0.0;
    double usage = 0.0;
    common::Seconds stamp = 0.0;
    std::uint64_t order = 0;  // last pick (fair-share) or head_seq (FIFO)
    TenantIndex tenant = kNoTenant;
  };
  struct ByRank {
    const std::deque<Assoc>* assocs;
    bool operator()(const Entry& a, const Entry& b) const;
  };
  using Index = std::set<Entry, ByRank>;

  struct Assoc {
    std::string id;
    double weight = 1.0;
    double usage = 0.0;            // decayed to `stamp`
    common::Seconds stamp = 0.0;   // virtual time of last fold
    std::uint64_t last_pick = 0;   // pick sequence, for the tie-break
    std::uint64_t head_seq = 0;    // FIFO key while eligible
    bool eligible = false;
    Index* index = nullptr;        // the index of this tenant's weight
    Index::iterator pos{};         // valid while eligible
  };

  const Assoc& find(TenantIndex t) const;
  double decay_to(const Assoc& assoc, common::Seconds now) const;
  /// share_weight / (decayed usage + epsilon): the one priority formula.
  double priority(const Assoc& assoc, common::Seconds now) const;
  Entry entry_for(TenantIndex t) const;
  /// Re-files an eligible tenant after its key changed.
  void reindex(TenantIndex t);
  /// Upper bound on the computed priority of \p entry and of every
  /// entry after it in an index of weight \p weight.
  double priority_bound(const Entry& entry, double weight,
                        common::Seconds now) const;
  void advance_clock(common::Seconds now);
  TenantIndex pick_fair_share(common::Seconds now);
  TenantIndex pick_fifo() const;

  common::Seconds half_life_;
  SchedulingPolicy policy_;
  std::deque<Assoc> assocs_;  // by TenantIndex; grows without slack
  std::unordered_map<std::string, TenantIndex> by_id_;
  /// One index per share weight, highest weight first (its zero-usage
  /// head out-ranks every lower weight, which prunes them at once).
  std::map<double, Index, std::greater<double>> indexes_;
  std::uint64_t pick_seq_ = 0;
  common::Seconds clock_ = 0.0;
};

}  // namespace hoh::tenant

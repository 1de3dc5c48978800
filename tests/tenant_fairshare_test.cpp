#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "tenant/accounting.h"
#include "tenant/fair_share.h"
#include "tenant/tenant.h"

namespace hoh::tenant {
namespace {

// ---- FairShareScheduler properties ----

/// Registers \p ids with \p weights and makes all of them eligible.
std::vector<TenantIndex> add_eligible(FairShareScheduler& fs,
                                      const std::vector<std::string>& ids,
                                      const std::vector<double>& weights) {
  std::vector<TenantIndex> out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.push_back(fs.add_tenant(ids[i], weights[i]));
    fs.set_eligible(out.back(), true, 0);
  }
  return out;
}

TEST(FairShare, EqualSharesAndUsageDegeneratesToRoundRobin) {
  // With equal weights and equal per-pick charges, the tie-break (least
  // recently picked, then id) must cycle through every tenant before
  // repeating one — for any pick cadence.
  const std::vector<std::string> ids = {"a", "b", "c", "d"};
  for (const double dt : {0.0, 1.0, 17.5}) {
    FairShareScheduler fs(600.0);
    add_eligible(fs, ids, {1.0, 1.0, 1.0, 1.0});
    double now = 0.0;
    std::vector<std::string> picks;
    for (int i = 0; i < 40; ++i) {
      const TenantIndex winner = fs.pick(now);
      ASSERT_NE(winner, kNoTenant);
      fs.charge(winner, 1.0, now);
      picks.push_back(fs.id(winner));
      now += dt;
    }
    for (std::size_t w = 0; w + ids.size() <= picks.size();
         w += ids.size()) {
      std::set<std::string> window(picks.begin() + w,
                                   picks.begin() + w + ids.size());
      EXPECT_EQ(window.size(), ids.size())
          << "window at " << w << " (dt " << dt << ") repeats a tenant";
    }
  }
}

TEST(FairShare, PickSequenceIsDeterministic) {
  auto run = [] {
    FairShareScheduler fs(300.0);
    add_eligible(fs, {"x", "y", "z"}, {1.0, 2.0, 1.5});
    std::vector<std::string> picks;
    for (int i = 0; i < 30; ++i) {
      const TenantIndex winner = fs.pick(static_cast<double>(i));
      fs.charge(winner, 2.0, static_cast<double>(i));
      picks.push_back(fs.id(winner));
    }
    return picks;
  };
  EXPECT_EQ(run(), run());
}

TEST(FairShare, UsageDecayHalvesOverOneHalfLife) {
  FairShareScheduler fs(100.0);
  const TenantIndex t = fs.add_tenant("t", 1.0);
  fs.charge(t, 80.0, 0.0);
  EXPECT_NEAR(fs.decayed_usage(t, 0.0), 80.0, 1e-9);
  EXPECT_NEAR(fs.decayed_usage(t, 100.0), 40.0, 1e-9);
  EXPECT_NEAR(fs.decayed_usage(t, 200.0), 20.0, 1e-9);
}

TEST(FairShare, ServiceConvergesToShareWeights) {
  // Closed loop: every step serves the highest-priority tenant and
  // charges one unit of usage. In steady state decay balances inflow,
  // so pick rates converge to the share ratio 1:2:4.
  FairShareScheduler fs(100.0);
  add_eligible(fs, {"small", "mid", "big"}, {1.0, 2.0, 4.0});
  std::map<std::string, int> counts;
  const int steps = 2000;
  for (int i = 0; i < steps; ++i) {
    const double now = static_cast<double>(i);
    const TenantIndex winner = fs.pick(now);
    fs.charge(winner, 1.0, now);
    if (i >= steps / 2) counts[fs.id(winner)] += 1;  // after warm-up
  }
  const double total = steps / 2.0;
  EXPECT_NEAR(counts["small"] / total, 1.0 / 7.0, 0.03);
  EXPECT_NEAR(counts["mid"] / total, 2.0 / 7.0, 0.03);
  EXPECT_NEAR(counts["big"] / total, 4.0 / 7.0, 0.03);
}

TEST(FairShare, RefundNeverDrivesUsageNegative) {
  FairShareScheduler fs(600.0);
  const TenantIndex t = fs.add_tenant("t", 1.0);
  fs.charge(t, 10.0, 0.0);
  // Refund after some decay has eaten part of the original charge.
  fs.charge(t, -10.0, 600.0);
  EXPECT_GE(fs.decayed_usage(t, 600.0), 0.0);
}

TEST(FairShare, UnknownTenantThrows) {
  FairShareScheduler fs;
  EXPECT_THROW(fs.index_of("ghost"), common::NotFoundError);
  EXPECT_THROW(fs.charge(7, 1.0, 0.0), common::NotFoundError);
  EXPECT_THROW(fs.decayed_usage(7, 0.0), common::NotFoundError);
  EXPECT_THROW((void)fs.add_tenant("", 1.0), common::ConfigError);
  EXPECT_THROW((void)fs.add_tenant("t", 0.0), common::ConfigError);
  (void)fs.add_tenant("t", 1.0);
  EXPECT_THROW((void)fs.add_tenant("t", 2.0), common::ConfigError);
}

TEST(FairShare, EmptyEligibleSetPicksNobodyAndTimeMayNotRunBackwards) {
  FairShareScheduler fs(600.0);
  const TenantIndex t = fs.add_tenant("t", 1.0);
  EXPECT_EQ(fs.pick(5.0), kNoTenant);
  fs.set_eligible(t, true, 0);
  EXPECT_EQ(fs.pick(5.0), t);
  fs.set_eligible(t, false, 0);
  EXPECT_EQ(fs.pick(6.0), kNoTenant);
  EXPECT_THROW(fs.pick(1.0), common::StateError);
  EXPECT_THROW(fs.charge(t, 1.0, 1.0), common::StateError);
}

/// The linear, string-keyed pick the ordered index replaced, kept as the
/// reference the index must match pick for pick.
class LinearReference {
 public:
  explicit LinearReference(double half_life) : half_life_(half_life) {}

  void add_tenant(const std::string& id, double weight) {
    assocs_[id].weight = weight;
  }

  void charge(const std::string& id, double usage, double now) {
    Assoc& assoc = assocs_.at(id);
    assoc.usage = std::max(0.0, decay_to(assoc, now) + usage);
    assoc.stamp = now;
  }

  std::string pick(const std::vector<std::string>& candidates, double now) {
    const Assoc* best = nullptr;
    const std::string* best_id = nullptr;
    double best_priority = 0.0;
    for (const auto& id : candidates) {
      const Assoc& assoc = assocs_.at(id);
      const double priority =
          assoc.weight / (decay_to(assoc, now) + 1e-9);
      const bool wins =
          best == nullptr || priority > best_priority ||
          (priority == best_priority &&
           (assoc.last_pick < best->last_pick ||
            (assoc.last_pick == best->last_pick && id < *best_id)));
      if (wins) {
        best = &assoc;
        best_id = &id;
        best_priority = priority;
      }
    }
    if (best_id == nullptr) return "";
    assocs_[*best_id].last_pick = ++pick_seq_;
    return *best_id;
  }

 private:
  struct Assoc {
    double weight = 1.0;
    double usage = 0.0;
    double stamp = 0.0;
    std::uint64_t last_pick = 0;
  };

  double decay_to(const Assoc& assoc, double now) const {
    if (half_life_ <= 0.0 || now <= assoc.stamp) return assoc.usage;
    return assoc.usage * std::exp2(-(now - assoc.stamp) / half_life_);
  }

  double half_life_;
  std::map<std::string, Assoc> assocs_;
  std::uint64_t pick_seq_ = 0;
};

TEST(FairShare, IndexedPickMatchesLinearReferenceAcrossSeeds) {
  // Random operation streams: mixed weights, half-life 0 and > 0, equal
  // charges in equal-time bursts (exact priority ties), refunds that
  // clamp usage to 0, long idle gaps that decay usage to 0, and
  // eligibility toggles. Every pick must name the reference's winner.
  const double weights[] = {0.5, 1.0, 2.0, 4.0};
  const double charges[] = {1.0, 2.0, 60.0, 1e-30};
  int picks_compared = 0;
  for (std::uint64_t seed = 1; seed <= 320; ++seed) {
    common::Rng rng(seed);
    const double half_life =
        seed % 3 == 0 ? 0.0 : rng.uniform(0.5, 900.0);
    FairShareScheduler fs(half_life);
    LinearReference ref(half_life);
    const auto n = static_cast<int>(rng.uniform_int(1, 40));
    std::vector<std::string> ids;
    for (int i = 0; i < n; ++i) {
      // Ids whose lexicographic order differs from registration order.
      ids.push_back("t" + std::to_string(rng.uniform_int(0, 999)) + "-" +
                    std::to_string(i));
      const double weight = weights[rng.uniform_int(0, 3)];
      ASSERT_EQ(fs.add_tenant(ids.back(), weight),
                static_cast<TenantIndex>(i));
      ref.add_tenant(ids.back(), weight);
    }
    std::vector<bool> eligible(static_cast<std::size_t>(n), false);
    double now = 0.0;
    for (int step = 0; step < 400; ++step) {
      const double dice = rng.uniform(0.0, 1.0);
      if (dice < 0.05) {
        now += rng.uniform(0.0, 50.0 * (half_life + 1.0));  // idle gap
      } else if (dice < 0.45) {
        now += rng.exponential(1.0);
      }  // else: same instant as the previous operation
      const double op = rng.uniform(0.0, 1.0);
      const auto t = static_cast<TenantIndex>(rng.uniform_int(0, n - 1));
      if (op < 0.25) {
        eligible[t] = !eligible[t];
        fs.set_eligible(t, eligible[t], 0);
      } else if (op < 0.35) {
        // Refund more than was ever charged: usage clamps to exactly 0.
        fs.charge(t, -1e6, now);
        ref.charge(ids[t], -1e6, now);
      } else if (op < 0.45) {
        const double usage = charges[rng.uniform_int(0, 3)];
        fs.charge(t, usage, now);
        ref.charge(ids[t], usage, now);
      } else {
        std::vector<std::string> candidates;
        for (int i = 0; i < n; ++i) {
          if (eligible[static_cast<std::size_t>(i)]) {
            candidates.push_back(ids[static_cast<std::size_t>(i)]);
          }
        }
        const std::string expected = ref.pick(candidates, now);
        const TenantIndex winner = fs.pick(now);
        ASSERT_EQ(winner == kNoTenant ? std::string() : fs.id(winner),
                  expected)
            << "seed " << seed << " step " << step;
        if (winner == kNoTenant) continue;
        picks_compared += 1;
        // Dispatch-style charge of one of a few equal sizes.
        const double usage = charges[rng.uniform_int(0, 2)];
        fs.charge(winner, usage, now);
        ref.charge(expected, usage, now);
      }
    }
  }
  EXPECT_GT(picks_compared, 30000);
}

TEST(FairShare, FifoPicksTheOldestQueueHead) {
  FairShareScheduler fs(600.0, SchedulingPolicy::kFifo);
  const TenantIndex a = fs.add_tenant("a", 1.0);
  const TenantIndex b = fs.add_tenant("b", 100.0);  // weights are ignored
  const TenantIndex c = fs.add_tenant("c", 0.5);
  fs.set_eligible(a, true, 7);
  fs.set_eligible(b, true, 3);
  fs.set_eligible(c, true, 5);
  EXPECT_EQ(fs.pick(0.0), b);
  fs.set_eligible(b, true, 9);  // b's head moved on
  EXPECT_EQ(fs.pick(0.0), c);
  fs.set_eligible(c, false, 0);
  EXPECT_EQ(fs.pick(0.0), a);
}

// ---- TokenBucket properties ----

TEST(TokenBucket, NeverExceedsRateTimesWindowAcrossSeeds) {
  // Property: for any arrival pattern, the number of accepted
  // submissions by time t never exceeds burst + rate·t.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng rng(seed);
    const double rate = rng.uniform(0.5, 5.0);
    const double burst = rng.uniform(1.0, 6.0);
    TokenBucket bucket(rate, burst);
    double now = 0.0;
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
      now += rng.exponential(1.0 / (4.0 * rate));  // ~4x overload
      if (bucket.try_take(now)) accepted += 1;
      EXPECT_LE(accepted, burst + rate * now + 1e-9)
          << "seed " << seed << " at t=" << now;
    }
    EXPECT_GT(accepted, 0);
  }
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0.0));
}

TEST(TokenBucket, RefillsToBurstCapOnly) {
  TokenBucket bucket(1.0, 3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_FALSE(bucket.try_take(0.0));  // bucket drained
  EXPECT_NEAR(bucket.tokens(1000.0), 3.0, 1e-9);  // capped at burst
}

// ---- accounting ----

TEST(Accounting, JournalRoundTripReproducesAggregates) {
  AccountingStore store;
  store.on_submitted(0.0, "a", "u1");
  store.on_admitted(0.0, "a", "u1", false);
  store.on_dispatched(0.0, "a", "u1");
  store.on_started(4.0, "a", "u1", 4.0);
  store.on_completed(64.0, "a", "u1", 60.0);
  store.on_submitted(1.0, "b", "u2");
  store.on_rejected(1.0, "b", "u2", "rate-limit");
  store.on_submitted(2.0, "b", "u3");
  store.on_admitted(2.0, "b", "u3", true);
  store.on_dispatched(10.0, "b", "u3");
  store.on_started(30.0, "b", "u3", 28.0);
  store.on_preempted(40.0, "b", "u3");
  store.on_failed(41.0, "b", "u3");

  const AccountingStore replayed =
      AccountingStore::from_json(store.to_json());
  ASSERT_EQ(replayed.tenants().size(), 2u);
  const TenantUsage& a = replayed.usage("a");
  EXPECT_EQ(a.completed, 1u);
  EXPECT_DOUBLE_EQ(a.core_seconds, 60.0);
  EXPECT_DOUBLE_EQ(a.wait.mean(), 4.0);
  const TenantUsage& b = replayed.usage("b");
  EXPECT_EQ(b.rejected, 1u);
  EXPECT_EQ(b.preempted, 1u);
  EXPECT_EQ(b.failed, 1u);
  EXPECT_EQ(b.wait_histogram[wait_bucket(28.0)], 1u);
  EXPECT_EQ(replayed.to_json().dump(), store.to_json().dump());
}

TEST(Accounting, JainsIndexBounds) {
  EXPECT_DOUBLE_EQ(jains_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jains_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jains_index({5.0, 5.0, 5.0}), 1.0);
  EXPECT_NEAR(jains_index({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  const double j = jains_index({1.0, 2.0, 3.0});
  EXPECT_GT(j, 1.0 / 3.0);
  EXPECT_LT(j, 1.0);
}

TEST(Accounting, WaitBucketEdges) {
  EXPECT_EQ(wait_bucket(0.0), 0u);
  EXPECT_EQ(wait_bucket(0.999), 0u);
  EXPECT_EQ(wait_bucket(1.0), 1u);
  EXPECT_EQ(wait_bucket(99.9), 2u);
  EXPECT_EQ(wait_bucket(1000.0), 4u);
}

}  // namespace
}  // namespace hoh::tenant

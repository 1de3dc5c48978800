#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analytics/kmeans_experiment.h"
#include "common/error.h"
#include "common/random.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"
#include "tenant/submission_gateway.h"

namespace hoh::tenant {
namespace {

/// Small live middleware stack (plain backend) for gateway
/// integration tests: an active 2-node pilot fronted by a UnitManager.
struct GatewayHarness {
  pilot::Session session;
  pilot::PilotManager pm{session};
  pilot::UnitManager um{session};
  std::shared_ptr<pilot::Pilot> pilot;

  explicit GatewayHarness(int nodes = 2, int cores_per_node = 2) {
    const cluster::MachineProfile machine =
        cluster::generic_profile(nodes, cores_per_node);
    session.register_machine(machine, hpc::SchedulerKind::kSlurm, nodes);
    pilot::AgentConfig agent;
    agent.spawn_latency = 0.01;
    pilot::PilotDescription pd;
    pd.resource = "slurm://" + machine.name + "/";
    pd.nodes = nodes;
    pd.runtime = 24 * 3600.0;
    pd.backend = pilot::AgentBackend::kPlain;
    pilot = pm.submit_pilot(pd, agent);
    um.add_pilot(pilot);
    while (pilot->state() != pilot::PilotState::kActive &&
           session.engine().now() < 3600.0) {
      session.engine().run_until(session.engine().now() + 5.0);
    }
    EXPECT_EQ(pilot->state(), pilot::PilotState::kActive);
  }

  void drain(SubmissionGateway& gw, double max_t = 36000.0) {
    while (!(um.all_done() && gw.quiescent()) &&
           session.engine().now() < max_t) {
      session.engine().run_until(session.engine().now() + 5.0);
    }
  }

  static pilot::ComputeUnitDescription unit(const std::string& name,
                                            double duration,
                                            int cores = 1) {
    pilot::ComputeUnitDescription cud;
    cud.name = name;
    cud.cores = cores;
    cud.memory_mb = 512;
    cud.duration = duration;
    return cud;
  }
};

TEST(SubmissionGateway, UnknownTenantThrows) {
  GatewayHarness h;
  SubmissionGateway gw(h.um);
  EXPECT_THROW(gw.submit("nobody", GatewayHarness::unit("u", 1.0)),
               common::NotFoundError);
}

TEST(SubmissionGateway, RateLimitRejectsBeforeStoreInsert) {
  GatewayHarness h;
  SubmissionGateway gw(h.um);
  TenantSpec spec;
  spec.id = "bursty";
  spec.quota.submit_rate = 0.1;
  spec.quota.submit_burst = 1.0;
  gw.add_tenant(spec);

  const Admission first = gw.submit("bursty", GatewayHarness::unit("a", 5.0));
  EXPECT_TRUE(first.accepted);
  const Admission second =
      gw.submit("bursty", GatewayHarness::unit("b", 5.0));
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.reason, "rate-limit");
  // The rejected unit never reached the UnitManager — admission happens
  // before any StateStore insert.
  EXPECT_EQ(h.um.submitted(), 0u);

  // One token accrues after 10 simulated seconds at rate 0.1/s.
  h.session.engine().run_until(h.session.engine().now() + 10.0);
  EXPECT_TRUE(gw.submit("bursty", GatewayHarness::unit("c", 5.0)).accepted);

  h.drain(gw);
  const TenantUsage& usage = gw.accounting().usage("bursty");
  EXPECT_EQ(usage.submitted, 3u);
  EXPECT_EQ(usage.rejected, 1u);
  EXPECT_EQ(usage.completed, 2u);
}

TEST(SubmissionGateway, CapacityQuotaQueuesInsteadOfRejecting) {
  GatewayHarness h;
  SubmissionGateway gw(h.um);
  TenantSpec spec;
  spec.id = "capped";
  spec.quota.max_in_flight_units = 1;
  gw.add_tenant(spec);

  for (int i = 0; i < 3; ++i) {
    const Admission a = gw.submit(
        "capped", GatewayHarness::unit("u" + std::to_string(i), 10.0));
    EXPECT_TRUE(a.accepted);
    if (i > 0) {
      EXPECT_TRUE(a.queued);
    }
  }
  // Only the head may be in the store; the rest are gateway-side.
  h.session.engine().run_until(h.session.engine().now() + 1.0);
  EXPECT_EQ(h.um.submitted(), 1u);
  EXPECT_EQ(gw.pending_count(), 2u);

  h.drain(gw);
  EXPECT_EQ(gw.accounting().usage("capped").completed, 3u);
  EXPECT_EQ(gw.peak_in_flight(), 1u);
}

TEST(SubmissionGateway, FairShareGivesWeightedService) {
  // Window of 1 makes the gateway the only ordering authority. Tenant
  // "gold" (share 3) should receive about three times the service of
  // "bronze" (share 1) while both stay backlogged.
  GatewayHarness h(1, 1);
  GatewayConfig gc;
  gc.policy = SchedulingPolicy::kFairShare;
  gc.dispatch_window = 1;
  SubmissionGateway gw(h.um, gc);
  TenantSpec gold;
  gold.id = "gold";
  gold.share_weight = 3.0;
  gw.add_tenant(gold);
  TenantSpec bronze;
  bronze.id = "bronze";
  bronze.share_weight = 1.0;
  gw.add_tenant(bronze);

  for (int i = 0; i < 24; ++i) {
    gw.submit("gold", GatewayHarness::unit("g" + std::to_string(i), 10.0));
    gw.submit("bronze", GatewayHarness::unit("b" + std::to_string(i), 10.0));
  }
  // Let roughly half the work finish, then compare service so far.
  h.session.engine().run_until(h.session.engine().now() + 250.0);
  const double gold_served = gw.accounting().usage("gold").core_seconds;
  const double bronze_served =
      gw.accounting().usage("bronze").core_seconds;
  ASSERT_GT(bronze_served, 0.0);
  EXPECT_NEAR(gold_served / bronze_served, 3.0, 0.8);

  h.drain(gw);
  EXPECT_EQ(gw.accounting().usage("gold").completed, 24u);
  EXPECT_EQ(gw.accounting().usage("bronze").completed, 24u);
}

TEST(SubmissionGateway, PreemptionEvictsLowPriorityAndRecovers) {
  // One node, two cores, window 2: "hog" fills the window with long
  // units, then "urgent" (hugely higher priority) arrives. With
  // preemption on, a hog unit is parked at kFailed via the legal
  // requeue edge, urgent runs, and the victim is redispatched later.
  GatewayHarness h(1, 2);
  GatewayConfig gc;
  gc.policy = SchedulingPolicy::kFairShare;
  gc.dispatch_window = 2;
  gc.preemption = true;
  gc.preempt_ratio = 4.0;
  SubmissionGateway gw(h.um, gc);
  TenantSpec hog;
  hog.id = "hog";
  gw.add_tenant(hog);
  TenantSpec urgent;
  urgent.id = "urgent";
  urgent.share_weight = 8.0;
  gw.add_tenant(urgent);

  gw.submit("hog", GatewayHarness::unit("hog-0", 400.0));
  gw.submit("hog", GatewayHarness::unit("hog-1", 400.0));
  // Let both hog units reach Executing.
  h.session.engine().run_until(h.session.engine().now() + 30.0);
  EXPECT_EQ(gw.in_flight_count(), 2u);

  gw.submit("urgent", GatewayHarness::unit("urgent-0", 50.0));
  h.session.engine().run_until(h.session.engine().now() + 60.0);
  EXPECT_EQ(gw.units_preempted(), 1u);
  EXPECT_EQ(gw.accounting().usage("hog").preempted, 1u);
  EXPECT_EQ(gw.accounting().usage("urgent").completed, 1u);

  // The victim redispatches across kFailed -> kPendingAgent and still
  // finishes: nothing is lost, only delayed.
  h.drain(gw);
  EXPECT_EQ(gw.accounting().usage("hog").completed, 2u);
  EXPECT_EQ(gw.accounting().usage("hog").failed, 0u);
  ASSERT_EQ(gw.completed_unit_names().size(), 3u);
}

TEST(SubmissionGateway, PreemptionTieBreaksToTheSmallestTenantId) {
  // Two equal-share holders charged the same usage at the same instant
  // tie on priority; the victim is the smaller id even though the other
  // registered and dispatched first.
  GatewayHarness h(1, 2);
  GatewayConfig gc;
  gc.policy = SchedulingPolicy::kFairShare;
  gc.dispatch_window = 2;
  gc.preemption = true;
  SubmissionGateway gw(h.um, gc);
  for (const char* id : {"hog-b", "hog-a"}) {
    TenantSpec spec;
    spec.id = id;
    gw.add_tenant(spec);
  }
  TenantSpec urgent;
  urgent.id = "urgent";
  urgent.share_weight = 8.0;
  gw.add_tenant(urgent);

  gw.submit("hog-b", GatewayHarness::unit("b-0", 400.0));
  gw.submit("hog-a", GatewayHarness::unit("a-0", 400.0));
  h.session.engine().run_until(h.session.engine().now() + 30.0);
  ASSERT_EQ(gw.in_flight_count(), 2u);

  gw.submit("urgent", GatewayHarness::unit("urgent-0", 50.0));
  h.session.engine().run_until(h.session.engine().now() + 60.0);
  const auto preempted = h.session.trace().find("tenant", "preempted");
  ASSERT_FALSE(preempted.empty());
  EXPECT_EQ(preempted.front().attrs.at("for"), "urgent");
  EXPECT_EQ(preempted.front().attrs.at("tenant"), "hog-a");
  h.drain(gw);
  EXPECT_EQ(gw.completed_unit_names().size(), 3u);
}

TEST(SubmissionGateway, ManyTenantPreemptionMatchesRecordedRun) {
  // 200 tenants with mixed shares arrive staggered against a window of
  // 16 with preemption on, so every fresh tenant out-ranks the window's
  // heaviest holder. The completed-name digest and the preemption count
  // pin the victim tenant (lowest priority, then smallest id) and the
  // victim unit (latest dispatch, then highest arrival sequence).
  GatewayHarness h(4, 4);
  GatewayConfig gc;
  gc.policy = SchedulingPolicy::kFairShare;
  gc.decay_half_life = 300.0;
  gc.dispatch_window = 16;
  gc.preemption = true;
  gc.preempt_ratio = 2.0;
  SubmissionGateway gw(h.um, gc);
  const double weights[] = {0.5, 1.0, 2.0, 4.0};
  const int tenants = 200;
  for (int i = 0; i < tenants; ++i) {
    TenantSpec spec;
    spec.id = "t" + std::to_string(1000 + i);
    spec.share_weight = weights[i % 4];
    gw.add_tenant(spec);
  }
  common::Rng rng(2024);
  const double t0 = h.session.engine().now();
  double last_arrival = t0;
  int submitted = 0;
  for (int i = 0; i < tenants; ++i) {
    const std::string id = "t" + std::to_string(1000 + i);
    double t = t0 + rng.uniform(0.0, 900.0);
    const auto units = rng.uniform_int(1, 4);
    for (std::int64_t u = 0; u < units; ++u) {
      const pilot::ComputeUnitDescription cud = GatewayHarness::unit(
          id + "-u" + std::to_string(u), rng.uniform(20.0, 120.0));
      h.session.engine().schedule_at(t, [&gw, id, cud] { gw.submit(id, cud); });
      last_arrival = std::max(last_arrival, t);
      t += rng.uniform(0.0, 30.0);
      submitted += 1;
    }
  }
  h.session.engine().run_until(last_arrival);
  h.drain(gw, 200000.0);

  ASSERT_TRUE(gw.quiescent());
  const std::vector<std::string>& names = gw.completed_unit_names();
  ASSERT_EQ(names.size(), static_cast<std::size_t>(submitted));
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a
  for (const std::string& name : names) {
    for (const char c : name + "\n") {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ull;
    }
  }
  EXPECT_EQ(digest, 0x4e54fd2a0f6702baull);
  EXPECT_EQ(gw.units_preempted(), 770u);
}

TEST(SubmissionGateway, FifoServesArrivalOrder) {
  GatewayHarness h(1, 1);
  GatewayConfig gc;
  gc.policy = SchedulingPolicy::kFifo;
  gc.dispatch_window = 1;
  SubmissionGateway gw(h.um, gc);
  TenantSpec a;
  a.id = "a";
  gw.add_tenant(a);
  TenantSpec b;
  b.id = "b";
  b.share_weight = 100.0;  // FIFO must ignore weights entirely
  gw.add_tenant(b);
  for (int i = 0; i < 4; ++i) {
    gw.submit("a", GatewayHarness::unit("a" + std::to_string(i), 5.0));
  }
  for (int i = 0; i < 4; ++i) {
    gw.submit("b", GatewayHarness::unit("b" + std::to_string(i), 5.0));
  }
  h.drain(gw);
  const std::vector<std::string>& names = gw.completed_unit_names();
  ASSERT_EQ(names.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(names[static_cast<std::size_t>(i)],
              "a" + std::to_string(i));
    EXPECT_EQ(names[static_cast<std::size_t>(i + 4)],
              "b" + std::to_string(i));
  }
}

TEST(SubmissionGateway, SingleTenantRunMatchesGatewaylessDigest) {
  // The keystone parity property: one tenant with no quotas behind the
  // gateway must complete the same unit set as the raw UnitManager
  // path — same output checksum, ok flag, unit count.
  analytics::KmeansExperimentConfig cfg;
  cfg.machine = cluster::generic_profile(2, 4);
  cfg.scheduler = hpc::SchedulerKind::kSlurm;
  cfg.scenario.points = 10'000;
  cfg.scenario.clusters = 10;
  cfg.scenario.iterations = 2;
  cfg.scenario.label = "parity";
  cfg.nodes = 2;
  cfg.tasks = 8;

  const analytics::KmeansExperimentResult baseline =
      analytics::run_kmeans_experiment(cfg);
  ASSERT_TRUE(baseline.ok);

  cfg.tenants = true;
  TenantSpec solo;
  solo.id = "solo";
  cfg.tenant_specs.push_back(solo);
  const analytics::KmeansExperimentResult gated =
      analytics::run_kmeans_experiment(cfg);
  ASSERT_TRUE(gated.ok);
  EXPECT_EQ(gated.output_checksum, baseline.output_checksum);
  EXPECT_EQ(gated.units_completed, baseline.units_completed);
  EXPECT_EQ(gated.units_preempted, 0u);
  ASSERT_TRUE(gated.tenant_accounting.is_object());
  EXPECT_EQ(static_cast<std::size_t>(gated.tenant_accounting.at("tenants")
                                         .at("solo")
                                         .at("completed")
                                         .as_number()),
            gated.units_completed);
}

}  // namespace
}  // namespace hoh::tenant

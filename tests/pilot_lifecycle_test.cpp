#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "net/message.h"
#include "net/transport.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"
#include "pilot/unit_record.h"

namespace hoh::pilot {
namespace {

/// Full-stack fixture: one session with Stampede (SLURM) and Wrangler
/// (SGE, with a dedicated Hadoop environment for Mode II).
class PilotLifecycleTest : public ::testing::Test {
 protected:
  PilotLifecycleTest() {
    session_.register_machine(cluster::stampede_profile(),
                              hpc::SchedulerKind::kSlurm, 8);
    session_.register_machine(cluster::wrangler_profile(),
                              hpc::SchedulerKind::kSge, 8);
    session_.create_dedicated_hadoop("wrangler", 3);
  }

  PilotDescription plain_pilot(const std::string& resource, int nodes) {
    PilotDescription pd;
    pd.resource = resource;
    pd.nodes = nodes;
    pd.runtime = 7200.0;
    return pd;
  }

  ComputeUnitDescription simple_unit(common::Seconds duration = 5.0) {
    ComputeUnitDescription cud;
    cud.duration = duration;
    cud.cores = 1;
    cud.memory_mb = 1024;
    return cud;
  }

  Session session_;
  PilotManager pm_{session_};
  UnitManager um_{session_};
};

TEST_F(PilotLifecycleTest, PlainPilotStateProgression) {
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 2));
  std::vector<PilotState> states;
  pilot->on_state_change([&](PilotState s) { states.push_back(s); });
  EXPECT_EQ(pilot->state(), PilotState::kPendingLaunch);
  session_.engine().run_until(120.0);
  EXPECT_EQ(pilot->state(), PilotState::kActive);
  EXPECT_EQ(states, (std::vector<PilotState>{PilotState::kLaunching,
                                             PilotState::kActive}));
  ASSERT_NE(pilot->agent(), nullptr);
  EXPECT_TRUE(pilot->agent()->active());
  EXPECT_EQ(pilot->agent()->allocation().size(), 2u);
}

TEST_F(PilotLifecycleTest, InvalidResourceRejected) {
  EXPECT_THROW(pm_.submit_pilot(PilotDescription{}), common::ConfigError);
  PilotDescription pd;
  pd.resource = "slurm://unknown-machine/";
  EXPECT_THROW(pm_.submit_pilot(pd), common::NotFoundError);
}

TEST_F(PilotLifecycleTest, UnitsExecuteOnPlainPilot) {
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(8, simple_unit(10.0)));
  EXPECT_EQ(units.size(), 8u);
  session_.engine().run_until(300.0);
  EXPECT_TRUE(um_.all_done());
  EXPECT_EQ(um_.done_count(), 8u);
  for (const auto& u : units) EXPECT_EQ(u->state(), UnitState::kDone);
  EXPECT_EQ(pilot->agent()->units_completed(), 8u);
}

TEST_F(PilotLifecycleTest, UnitsQueueWhenPilotSaturated) {
  // 1 Stampede node = 16 cores; 32 single-core units of 50 s run in two
  // waves.
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(32, simple_unit(50.0)));
  session_.engine().run_until(80.0);
  // First wave running, second wave still queued.
  EXPECT_EQ(pilot->agent()->units_running(), 16u);
  EXPECT_EQ(pilot->agent()->units_queued(), 16u);
  session_.engine().run_until(400.0);
  EXPECT_TRUE(um_.all_done());
}

TEST_F(PilotLifecycleTest, MemoryLimitsConstrainPlainScheduling) {
  // Stampede node: 32 GB. 16 cores but only 3 units of 10 GB fit at once.
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  ComputeUnitDescription big = simple_unit(50.0);
  big.memory_mb = 10 * 1024;
  um_.submit(std::vector<ComputeUnitDescription>(6, big));
  session_.engine().run_until(120.0);
  EXPECT_EQ(pilot->agent()->units_running(), 3u);
  session_.engine().run_until(500.0);
  EXPECT_TRUE(um_.all_done());
}

TEST_F(PilotLifecycleTest, MpiUnitsGangScheduleCores) {
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  ComputeUnitDescription mpi = simple_unit(20.0);
  mpi.cores = 16;
  mpi.is_mpi = true;
  auto unit = um_.submit(mpi);
  session_.engine().run_until(200.0);
  EXPECT_EQ(unit->state(), UnitState::kDone);
}

TEST_F(PilotLifecycleTest, PilotCancelCancelsQueuedUnits) {
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  // 17th unit can never start on 16 cores before cancellation.
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(17, simple_unit(500.0)));
  session_.engine().run_until(120.0);
  pilot->cancel();
  EXPECT_EQ(pilot->state(), PilotState::kCanceled);
  session_.engine().run_until(130.0);
  EXPECT_EQ(units.back()->state(), UnitState::kCanceled);
}

TEST_F(PilotLifecycleTest, WalltimeExpiryFailsPilot) {
  PilotDescription pd = plain_pilot("slurm://stampede/", 1);
  pd.runtime = 100.0;  // expires before the unit finishes
  auto pilot = pm_.submit_pilot(pd);
  um_.add_pilot(pilot);
  um_.submit(simple_unit(5000.0));
  session_.engine().run_until(300.0);
  EXPECT_EQ(pilot->state(), PilotState::kFailed);
}

TEST_F(PilotLifecycleTest, RoundRobinAcrossTwoPilots) {
  auto p0 = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  auto p1 = pm_.submit_pilot(plain_pilot("sge://wrangler/", 1));
  um_.add_pilot(p0);
  um_.add_pilot(p1);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(10, simple_unit(5.0)));
  int on_p0 = 0;
  for (const auto& u : units) {
    if (u->pilot_id() == p0->id()) ++on_p0;
  }
  EXPECT_EQ(on_p0, 5);
  session_.engine().run_until(300.0);
  EXPECT_TRUE(um_.all_done());
}

TEST_F(PilotLifecycleTest, StagingStatesTraversed) {
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  ComputeUnitDescription cud = simple_unit(5.0);
  cud.input_staging = {
      StagedFile{saga::Url("file://stampede/in.dat"), 64 * common::kMiB}};
  cud.output_staging = {
      StagedFile{saga::Url("file://stampede/out.dat"), 16 * common::kMiB}};
  auto unit = um_.submit(cud);
  session_.engine().run_until(300.0);
  EXPECT_EQ(unit->state(), UnitState::kDone);
  // The trace shows the full state sequence including staging.
  std::vector<std::string> names;
  for (const auto& e : session_.trace().find("unit")) {
    if (e.attrs.count("unit") && e.attrs.at("unit") == unit->id()) {
      names.push_back(e.name);
    }
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "StagingInput"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "StagingOutput"),
            names.end());
  EXPECT_EQ(names.back(), "Done");
}

TEST_F(PilotLifecycleTest, UnitStartupSpanRecorded) {
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  um_.submit(simple_unit(1.0));
  session_.engine().run_until(300.0);
  const auto spans = session_.trace().find_spans("unit", "startup");
  ASSERT_EQ(spans.size(), 1u);
  // Unit was submitted before the pilot was active, so startup includes
  // pilot wait; it must end exactly when Executing was reached.
  EXPECT_GT(spans[0].duration(), 0.0);
}

TEST_F(PilotLifecycleTest, BarrierPollSkipsHeartbeatOnlyWrites) {
  // A wave in flight: 8 long units, all executing on one 16-core node.
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(8, simple_unit(3600.0)));
  session_.engine().run_until(300.0);
  for (const auto& u : units) ASSERT_EQ(u->state(), UnitState::kExecuting);
  EXPECT_FALSE(um_.all_done());

  // Between the polls only heartbeat leases (and agent queue polls)
  // write the store; no unit document changes.
  StateStore& store = session_.store();
  const auto muts = store.mutation_count();
  session_.engine().run_until(330.0);
  ASSERT_GT(store.mutation_count(), muts);
  for (const auto& u : units) ASSERT_EQ(u->state(), UnitState::kExecuting);

  const auto ops = store.op_count();
  EXPECT_FALSE(um_.all_done());
  EXPECT_EQ(store.op_count() - ops, 0u);
}

TEST_F(PilotLifecycleTest, UnitWriteSettlingTheLastUnitFlipsTheBarrier) {
  // The pilot never runs, so both units wait at PendingAgent and only
  // the test writes their documents.
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(2, simple_unit()));
  StateStore& store = session_.store();
  store.set_unit_state(units[0]->id(), UnitState::kCanceled);
  EXPECT_FALSE(um_.all_done());
  const auto ops = store.op_count();
  EXPECT_FALSE(um_.all_done());  // nothing written: nothing read
  EXPECT_EQ(store.op_count(), ops);

  store.set_unit_state(units[1]->id(), UnitState::kCanceled);
  EXPECT_TRUE(um_.all_done());
  EXPECT_EQ(units[1]->state(), UnitState::kCanceled);
}

TEST_F(PilotLifecycleTest, BarrierPollRereadsOnlyWrittenUnits) {
  // The pilot never runs: every unit waits at PendingAgent and only the
  // test writes unit documents.
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  auto units = um_.submit(
      std::vector<ComputeUnitDescription>(8, simple_unit()));
  EXPECT_FALSE(um_.all_done());

  // One unit written since the last poll: the next poll reads that one
  // document once, not all eight.
  StateStore& store = session_.store();
  store.set_unit_state(units[3]->id(), UnitState::kCanceled);
  const auto ops = store.op_count();
  EXPECT_FALSE(um_.all_done());
  EXPECT_EQ(store.op_count() - ops, 1u);
  EXPECT_EQ(um_.done_count(), 0u);
}

TEST_F(PilotLifecycleTest, SubmitWithoutPilotsThrows) {
  EXPECT_THROW(um_.submit(simple_unit()), common::StateError);
}

TEST_F(PilotLifecycleTest, InvalidUnitRejected) {
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  ComputeUnitDescription bad;
  bad.cores = 0;
  EXPECT_THROW(um_.submit(bad), common::ConfigError);
  // A batch with one bad unit is refused whole: nothing is dispatched.
  EXPECT_THROW(um_.submit(std::vector<ComputeUnitDescription>{simple_unit(),
                                                              bad}),
               common::ConfigError);
  EXPECT_EQ(session_.store().queue_depth("agent." + pilot->id()), 0u);
  EXPECT_EQ(um_.submitted(), 0u);
}

TEST_F(PilotLifecycleTest, BatchedDispatchKeepsSubmitOrder) {
  // Free units cross as one StoreIngest batch while a held unit is put
  // directly. The batch is flushed before that put, so the unit write
  // feed and the agent queue see the units in submit order.
  auto pilot = pm_.submit_pilot(plain_pilot("slurm://stampede/", 1));
  um_.add_pilot(pilot);
  StateStore& store = session_.store();
  const std::uint64_t feed = store.open_feed();
  ComputeUnitDescription held = simple_unit();
  held.depends_on = {"unit.0000"};  // the first unit of this batch
  const auto units = um_.submit(
      std::vector<ComputeUnitDescription>{simple_unit(), held, simple_unit()});
  ASSERT_EQ(units[0]->id(), "unit.0000");
  const std::vector<std::string> order = {units[0]->id(), units[1]->id(),
                                          units[2]->id()};
  EXPECT_EQ(store.drain_feed(feed), order);
  EXPECT_EQ(store.queue_pop_all("agent." + pilot->id()),
            (std::vector<std::string>{order[0], order[2]}));
  EXPECT_EQ(units[1]->state(), UnitState::kNew);
  store.close_feed(feed);
}

/// Keeps every StoreIngest that crosses it.
class IngestRecorder : public net::InProcessTransport {
 public:
  net::Envelope call(const std::string& endpoint,
                     const net::Envelope& request) override {
    if (endpoint == "store.ingest") {
      ingests.push_back(net::open_envelope<net::StoreIngest>(request));
    }
    return InProcessTransport::call(endpoint, request);
  }

  std::vector<net::StoreIngest> ingests;
};

TEST(BatchedDispatch, LargeSubmitCrossesInBatchesUnderTheByteBound) {
  Session session;
  auto owned = std::make_unique<IngestRecorder>();
  IngestRecorder& transport = *owned;
  session.set_transport(std::move(owned));
  session.register_machine(cluster::stampede_profile(),
                           hpc::SchedulerKind::kSlurm, 8);
  PilotManager pm(session);
  UnitManager um(session);
  PilotDescription pd;
  pd.resource = "slurm://stampede/";
  pd.nodes = 1;
  pd.runtime = 7200.0;
  const auto pilot = pm.submit_pilot(pd);
  um.add_pilot(pilot);

  ComputeUnitDescription desc;
  desc.name = "map";
  desc.duration = 5.0;
  desc.memory_mb = 1024;
  const std::size_t n = 600;
  const std::uint64_t calls_before = transport.stats().calls;
  const auto units =
      um.submit(std::vector<ComputeUnitDescription>(n, desc));

  // Every unit has the same list bytes: equal id lengths, one pilot and
  // one description. A batch takes units while its list stays under
  // kBatchBytes.
  const auto list_bytes = [](const net::StoreIngest::Unit& u) {
    return 12 + u.unit_id.size() + u.queue.size() + u.document.size();
  };
  const std::size_t unit_bytes = list_bytes(net::StoreIngest::Unit{
      units[0]->id(), "agent." + pilot->id(),
      pack_unit_document(
          UnitRecord{UnitState::kPendingAgent, pilot->id(), desc})});
  ASSERT_GE(n * unit_bytes, 4 * net::kBatchBytes);  // several bounds' worth
  const std::size_t per_batch = (net::kBatchBytes - 1) / unit_bytes;
  const std::size_t batches = (n + per_batch - 1) / per_batch;
  EXPECT_EQ(transport.stats().calls - calls_before, batches);
  ASSERT_EQ(transport.ingests.size(), batches);
  std::size_t next = 0;
  for (const net::StoreIngest& ingest : transport.ingests) {
    EXPECT_EQ(ingest.collection, "unit");
    std::size_t bytes = 0;
    for (const auto& unit : ingest.units) {
      ASSERT_LT(next, n);
      EXPECT_EQ(unit.unit_id, units[next++]->id());  // submit order
      bytes += list_bytes(unit);
    }
    EXPECT_LT(bytes, net::kBatchBytes);
    // The frame is the list plus the collection and the element count.
    EXPECT_EQ(net::make_envelope(ingest).payload.size(), 8 + 4 + bytes);
  }
  EXPECT_EQ(next, n);
}

}  // namespace
}  // namespace hoh::pilot
